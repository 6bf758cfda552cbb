"""Grammars over tuple-valued nonterminals, restricted to binary and
purely lexical rules.

A binary rule combines the spans of its two children into the spans of its
left-hand side by a composition: one template per output span, each template
a sequence of child-span variables (``b1..bk`` for the first child,
``g1..gk`` for the second).  A lexical rule writes fixed terminal sequences,
one per span.  This module loads the line-based file format, validates the
normal form, computes endpoint/configuration data, the contact rank, the
balance flag, and the rewrite that makes every rule single-initial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

DEFAULT_OMEGA = 2.3728639

_VAR_RE = re.compile(r"^([bg])([0-9]+)$")
_QUOTED_RE = re.compile(r"^'([^']*)'$")
# a token of a grammar line: a comma, or a run of characters up to a space,
# a comma or a '#'.  A quoted terminal in a run may hold '#' or ',' but no
# space or quote; a quote that closes no terminal takes the rest of its run,
# so the run is a token no rule accepts
_TOKEN_RE = re.compile(r"(?:[^\s,#']+|'[^'\s]*')+(?:'[^\s,#']*)?|'[^\s,#']*|,")
# a line up to its comment, which a '#' outside a quoted terminal starts
_CODE_RE = re.compile(r"(?:[^#']+|'[^'\s]*'|')*")


class GrammarError(ValueError):
    pass


class Var(NamedTuple):
    side: str   # "b" = first child, "g" = second child
    index: int  # 1-based span index of that child

    def __str__(self):
        return "%s%d" % (self.side, self.index)


@dataclass(frozen=True)
class Rule:
    rid: int
    lhs: str
    rhs: tuple[str, str] | None                 # binary rules
    comp: tuple[tuple[Var, ...], ...] | None
    words: tuple[tuple[str, ...], ...] | None   # lexical rules
    # resolved fan-outs (lhs, rhs1, rhs2) so per-rule arithmetic is local
    fo: tuple[int, int, int] | None = None

    @property
    def is_binary(self) -> bool:
        return self.rhs is not None

    @cached_property
    def _configs(self) -> "ConfigTriple":
        """What ``configurations`` returns, found once per rule object."""
        if not self.is_binary:
            raise ValueError("rule %d is lexical; no configurations" % self.rid)
        cfg1, cfg2, cfg3 = set(), set(), set()
        for tno, t in enumerate(self.comp, 1):
            if not t:
                continue
            if t[0].side == "b":
                cfg1.add(2 * tno - 1)
            if t[-1].side == "b":
                cfg1.add(2 * tno)
            for pos, v in enumerate(t):
                first, last = pos == 0, pos == len(t) - 1
                if v.side == "b":
                    if first:
                        cfg2.add(2 * v.index - 1)
                    if last:
                        cfg2.add(2 * v.index)
                else:
                    if not first:
                        cfg3.add(2 * v.index - 1)
                    if not last:
                        cfg3.add(2 * v.index)
        return ConfigTriple(frozenset(cfg1), frozenset(cfg2), frozenset(cfg3))

    @cached_property
    def _d(self) -> int:
        """What ``per_rule_d`` returns, found once per rule object."""
        c = self._configs
        phi_a, _, phi_c = self.fo
        ds = structural_delta(self)
        return max(len(c.cfg2), ds, 2 * phi_c - ds, len(c.cfg1), 2 * phi_a - len(c.cfg1))

    def __str__(self):
        if self.is_binary:
            spans = " , ".join(" ".join(map(str, t)) for t in self.comp)
            return "%s -> %s %s : %s" % (self.lhs, self.rhs[0], self.rhs[1], spans)
        spans = " , ".join(
            " ".join("'%s'" % w for w in t) if t else "''" for t in self.words
        )
        return "%s -> : %s" % (self.lhs, spans)


# eq=False: a grammar hashes by identity, the key of ``recognizer._prepare``
@dataclass(frozen=True, eq=False)
class Grammar:
    start: str
    rules: tuple[Rule, ...]
    fanout: dict
    nonterminals: frozenset
    terminals: frozenset

    def binary_rules(self) -> tuple:
        return self._binary

    def lexical_rules(self) -> tuple:
        return self._lexical

    @cached_property
    def _binary(self) -> tuple:
        return tuple(r for r in self.rules if r.is_binary)

    @cached_property
    def _lexical(self) -> tuple:
        return tuple(r for r in self.rules if not r.is_binary)

    @cached_property
    def symbol_ids(self) -> dict:
        """``{nonterminal: plane}`` in sorted order: the symbol axis of the
        charts this grammar runs on."""
        return {nt: t for t, nt in enumerate(sorted(self.nonterminals))}

    @cached_property
    def _problems(self) -> tuple:
        """What ``validate`` reports, found once per grammar object."""
        return tuple(_find_problems(self))


class ConfigTriple(NamedTuple):
    cfg1: frozenset  # endpoints of the lhs contributed by the first child
    cfg2: frozenset  # endpoints of the first child that do not combine
    cfg3: frozenset  # endpoints of the second child that do combine


# ---------------------------------------------------------------------------
# file format

def parse_grammar(text: str) -> Grammar:
    """Parse the line-based grammar format and return a validated Grammar.

    ``#`` starts a comment, ``start NT`` names the start symbol, and rules
    look like ``A -> B C : b1 g1 , g2 b2`` or ``A -> : 'a' , 'c'`` (``''``
    for an empty span).  Fan-outs are inferred from usage and must agree
    across every occurrence of a nonterminal.
    """
    start = None
    rules = []
    constraints = {}  # nt -> (fan-out, first line that pinned it)

    def pin(nt, fo, lineno):
        old = constraints.get(nt)
        if old is None:
            constraints[nt] = (fo, lineno)
        elif old[0] != fo:
            raise GrammarError(
                "line %d: fan-out mismatch for %s: %d here, %d at line %d"
                % (lineno, nt, fo, old[0], old[1])
            )

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _CODE_RE.match(raw)[0].strip()
        if not line:
            continue
        if line.startswith("start "):
            if start is not None:
                raise GrammarError("line %d: duplicate start declaration" % lineno)
            start = line[len("start "):].strip()
            if not start or " " in start:
                raise GrammarError("line %d: bad start declaration" % lineno)
            continue
        if "->" not in line:
            raise GrammarError("line %d: expected a rule or start declaration" % lineno)
        head, _, tail = line.partition("->")
        lhs = head.strip()
        if not lhs or " " in lhs:
            raise GrammarError("line %d: bad rule head %r" % (lineno, lhs))
        body, colon, spans_text = tail.partition(":")
        if not colon:
            raise GrammarError("line %d: missing ':' before span templates" % lineno)
        body_parts = body.split()
        span_parts = [[]]
        for tok in _TOKEN_RE.findall(spans_text):
            if tok == ",":
                span_parts.append([])
            else:
                span_parts[-1].append(tok)

        if len(body_parts) == 2:
            rhs = (body_parts[0], body_parts[1])
            comp = []
            max_b = max_g = 0
            for part in span_parts:
                template = []
                for tok in part:
                    mv = _VAR_RE.match(tok)
                    if not mv:
                        raise GrammarError(
                            "line %d: bad variable %r (want b<k> or g<k>)" % (lineno, tok)
                        )
                    v = Var(mv.group(1), int(mv.group(2)))
                    if v.index < 1:
                        raise GrammarError("line %d: variable indices are 1-based" % lineno)
                    if v.side == "b":
                        max_b = max(max_b, v.index)
                    else:
                        max_g = max(max_g, v.index)
                    template.append(v)
                comp.append(tuple(template))
            if max_b == 0 or max_g == 0:
                raise GrammarError(
                    "line %d: binary rule must use both children's spans" % lineno
                )
            pin(lhs, len(comp), lineno)
            pin(rhs[0], max_b, lineno)
            pin(rhs[1], max_g, lineno)
            rules.append((lineno, lhs, rhs, tuple(comp), None))
        elif len(body_parts) == 0:
            words = []
            for part in span_parts:
                span = []
                for tok in part:
                    mq = _QUOTED_RE.match(tok)
                    if not mq:
                        raise GrammarError(
                            "line %d: bad terminal token %r (want 'word' or '')" % (lineno, tok)
                        )
                    if mq.group(1):
                        span.append(mq.group(1))
                words.append(tuple(span))
            pin(lhs, len(words), lineno)
            rules.append((lineno, lhs, None, None, tuple(words)))
        else:
            raise GrammarError(
                "line %d: rule body must name two nonterminals or none" % lineno
            )

    if start is None:
        raise GrammarError("no start declaration")
    if start not in constraints:
        raise GrammarError("unknown start symbol %r" % start)
    if constraints[start][0] != 1:
        raise GrammarError(
            "start symbol %s must cover a single span, not %d"
            % (start, constraints[start][0])
        )

    fanout = {nt: fo for nt, (fo, _) in constraints.items()}
    final = []
    terminals = set()
    for rid, (lineno, lhs, rhs, comp, words) in enumerate(rules):
        if rhs is not None:
            fo = (fanout[lhs], fanout[rhs[0]], fanout[rhs[1]])
            final.append(Rule(rid, lhs, rhs, comp, None, fo))
        else:
            final.append(Rule(rid, lhs, None, None, words))
            for span in words:
                terminals.update(span)

    g = Grammar(
        start=start,
        rules=tuple(final),
        fanout=fanout,
        nonterminals=frozenset(fanout),
        terminals=frozenset(terminals),
    )
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))
    return g


# ---------------------------------------------------------------------------
# validation

def structural_delta(r: Rule) -> int:
    """Number of places where two child spans sit next to each other."""
    if not r.is_binary:
        raise ValueError("rule %d is lexical" % r.rid)
    return sum(max(len(t) - 1, 0) for t in r.comp)


def delta(r: Rule) -> int:
    """Combining-point count by the fan-out identity phi(B)+phi(C)-phi(A)."""
    if not r.is_binary:
        raise ValueError("rule %d is lexical; no combining points" % r.rid)
    a, b, c = r.fo
    return b + c - a


def _rule_problems(g: Grammar, r: Rule) -> list:
    """The normal-form violations of one rule, without the rule's tag."""
    problems = []
    if r.is_binary:
        if r.fo is None or len(r.comp) != r.fo[0]:
            return ["template count differs from fan-out"]
        seen = {"b": [], "g": []}
        for t in r.comp:
            for v in t:
                seen[v.side].append(v.index)
        for side, want in (("b", r.fo[1]), ("g", r.fo[2])):
            idxs = seen[side]
            for k in range(1, want + 1):
                uses = idxs.count(k)
                if uses == 0:
                    problems.append("%s%d never used" % (side, k))
                elif uses > 1:
                    problems.append("non-linear use of %s%d" % (side, k))
            if any(k > want for k in idxs):
                problems.append("%s index beyond the child's fan-out" % side)
            if idxs != sorted(idxs):
                problems.append("%s spans out of order" % ("first child" if side == "b" else "second child"))
        if not r.comp[0] or r.comp[0][0] != Var("b", 1):
            problems.append("first template must start with b1")
        for t in r.comp:
            for u, v in zip(t, t[1:]):
                if u.side == v.side:
                    problems.append("adjacent same-side variables %s %s" % (u, v))
        if structural_delta(r) < 1:
            problems.append("no combining point between the children")
    else:
        if not any(r.words):
            problems.append("lexical rule with no terminals at all")
        if len(r.words) != g.fanout.get(r.lhs):
            problems.append("span count differs from fan-out")
    return problems


def validate(g: Grammar) -> list:
    """Check every normal-form invariant; returns human-readable violations.
    The checks run once per grammar object, on its first ``validate``."""
    return list(g._problems)


def _find_problems(g: Grammar) -> list:
    problems = []
    for r in g.rules:
        found = _rule_problems(g, r)
        if found:
            tag = "rule %d (%s)" % (r.rid, r)
            problems += ["%s: %s" % (tag, p) for p in found]
    if g.fanout.get(g.start) != 1:
        problems.append("start symbol %s must have fan-out 1" % g.start)
    clash = g.terminals & g.nonterminals
    if clash:
        problems.append("names used as both terminal and nonterminal: %s" % sorted(clash))
    return problems


# ---------------------------------------------------------------------------
# endpoint configurations and contact rank

def configurations(r: Rule) -> ConfigTriple:
    """Endpoint index sets describing how a rule's cells are addressed.

    Span k of a child owns endpoints 2k-1 (left) and 2k (right).  An endpoint
    combines when its span touches a span of the other child there; the
    shared address of a multiplication carries exactly the combining
    endpoints of the second child.  Computed once per rule object.
    """
    return r._configs


def per_rule_d(r: Rule) -> int:
    """Largest address length any cell of this rule's multiplication needs.
    Computed once per rule object."""
    return r._d


def contact_rank(g: Grammar) -> int:
    """Maximum address length needed by any rule; 1 for lexical-only grammars."""
    best = 1
    for r in g.binary_rules():
        d_r = per_rule_d(r)
        if not any(len(t) == 0 for t in r.comp):
            # without empty spans the structural count and the fan-out
            # identity describe the same three lengths
            a, b, c = r.fo
            assert d_r == max(a + b - c, a - b + c, b + c - a), r
        best = max(best, d_r)
    return best


def space_rank(g: Grammar) -> int:
    """Address length the engine runs at: the largest ``per_rule_d`` over the
    binary rules whose products happen inside the matrix, and never less
    than the widest lexical fact the seed must store.

    When the start symbol is on no right-hand side, its binary rules are
    left out: a start fact feeds no other rule, so the recognizer applies
    those rules after the closure, by a join over the child facts, and the
    matrix never needs their (possibly longer) addresses.  Otherwise every
    binary rule counts, and this is the contact rank.
    ``max(contact_rank(g), space_rank(g))`` is the rank at which every rule,
    start rules included, fits inside the matrix."""
    rules = g.binary_rules()
    if not any(g.start in r.rhs for r in rules):
        rules = [r for r in rules if r.lhs != g.start]
    d = max((per_rule_d(r) for r in rules), default=1)
    for r in g.lexical_rules():
        d = max(d, g.fanout[r.lhs])
    return d


def config_set(g: Grammar, nt: str) -> frozenset:
    """Every endpoint configuration in which ``nt`` plays a role."""
    out = set()
    for r in g.binary_rules():
        c = configurations(r)
        if r.lhs == nt:
            out.add(c.cfg1)
        if r.rhs[0] == nt:
            out.add(c.cfg2)
        if r.rhs[1] == nt:
            out.add(c.cfg3)
    return frozenset(out)


def is_balanced(g: Grammar) -> bool:
    """True when some nonterminal is used in two or more different
    configurations that each expose all of its endpoints.

    Such a nonterminal occupies cells whose row and column are both
    full-length for it, in more than one split, so its facts reach the
    other splits only by pi-copy.  The paper alternates closure with
    copying for these grammars, which costs the +1 in the predicted
    exponent.
    """
    for nt in g.nonterminals:
        full = {c for c in config_set(g, nt) if len(c) == g.fanout[nt]}
        if len(full) >= 2:
            return True
    return False


def is_single_initial(g: Grammar) -> bool:
    """True when no rule starts a template with the second child's first span."""
    for r in g.binary_rules():
        for t in r.comp:
            if t and t[0] == Var("g", 1):
                return False
    return True


# ---------------------------------------------------------------------------
# dual-initial -> single-initial rewrite

def to_single_initial(g: Grammar) -> Grammar:
    """Rewrite every rule whose second child starts a span of the lhs.

    The offending rule's first child is replaced by a widened copy carrying
    one extra empty span placed immediately left of the second child's first
    span; all of the copy's rules are cloned with the empty span inserted at
    that position.  Cloning (rather than a chain rule) keeps the binary
    normal form.  Raises the maximum fan-out by at most one.
    """
    if is_single_initial(g):
        return g

    fanout = dict(g.fanout)
    widened = {}        # (nt, insert position) -> widened name
    out = []
    clones_done = set() # widened names whose rule set is already emitted
    queue = list(g.rules)
    next_rid = max((r.rid for r in g.rules), default=-1) + 1
    by_lhs = {}
    for r in g.rules:
        by_lhs.setdefault(r.lhs, []).append(r)

    def widened_name(base, pos):
        key = (base, pos)
        if key in widened:
            return widened[key]
        name = base + "'"
        while name in fanout or name in g.terminals:
            name += "'"
        widened[key] = name
        fanout[name] = fanout[base] + 1
        return name

    guard = 0
    while queue:
        guard += 1
        if guard > 10000:
            raise GrammarError("single-initial rewrite did not settle")
        r = queue.pop(0)
        if not r.is_binary:
            out.append(r)
            continue
        hit = None
        for tno, t in enumerate(r.comp):
            if t and t[0] == Var("g", 1):
                hit = tno
                break
        if hit is None:
            out.append(r)
            continue
        # spans of the first child mentioned before the offending template
        # (nothing from the second child can precede its first span)
        before = sum(len(t) for t in r.comp[:hit])
        pos = before  # 0-based span index at which the empty span is inserted
        b_new = widened_name(r.rhs[0], pos)

        def renumber(v):
            if v.side == "b" and v.index > pos:
                return Var("b", v.index + 1)
            return v

        comp = [tuple(renumber(v) for v in t) for t in r.comp]
        comp[hit] = (Var("b", pos + 1),) + comp[hit]
        fo = (r.fo[0], fanout[b_new], r.fo[2])
        queue.insert(0, Rule(r.rid, r.lhs, (b_new, r.rhs[1]), tuple(comp), None, fo))

        if b_new not in clones_done:
            clones_done.add(b_new)
            for q in by_lhs.get(r.rhs[0], []):
                if q.is_binary:
                    qcomp = q.comp[:pos] + ((),) + q.comp[pos:]
                    qfo = (fanout[b_new], q.fo[1], q.fo[2])
                    clone = Rule(next_rid, b_new, q.rhs, qcomp, None, qfo)
                else:
                    qwords = q.words[:pos] + ((),) + q.words[pos:]
                    clone = Rule(next_rid, b_new, None, None, qwords)
                next_rid += 1
                by_lhs.setdefault(b_new, []).append(clone)
                queue.append(clone)

    out.sort(key=lambda r: r.rid)
    g2 = Grammar(
        start=g.start,
        rules=tuple(out),
        fanout=fanout,
        nonterminals=frozenset(fanout),
        terminals=g.terminals,
    )
    problems = validate(g2)
    if problems:
        raise GrammarError("rewrite produced an invalid grammar: " + "; ".join(problems))
    return g2


# ---------------------------------------------------------------------------
# analysis report

@dataclass(frozen=True)
class RuleAnalysis:
    rid: int
    delta: int
    d: int
    configs: ConfigTriple


@dataclass(frozen=True)
class AnalysisReport:
    f: int
    d: int
    per_rule: tuple
    config_sets: dict
    balanced: bool
    single_initial: bool
    omega: float
    predicted_matmul_exponent: float
    tabular_exponent: int
    # the rank the engine runs at, and the exponent predicted at that rank,
    # both for the grammar it runs (after the single-initial rewrite)
    runtime_rank: int
    runtime_exponent: float

    def to_json(self):
        return {
            "f": self.f,
            "d": self.d,
            "per_rule": [
                {
                    "rule": pr.rid,
                    "delta": pr.delta,
                    "d": pr.d,
                    "cfg1": sorted(pr.configs.cfg1),
                    "cfg2": sorted(pr.configs.cfg2),
                    "cfg3": sorted(pr.configs.cfg3),
                }
                for pr in self.per_rule
            ],
            "config_sets": {
                nt: sorted(sorted(c) for c in cs)
                for nt, cs in sorted(self.config_sets.items())
            },
            "balanced": self.balanced,
            "single_initial": self.single_initial,
            "omega": self.omega,
            "predicted_matmul_exponent": self.predicted_matmul_exponent,
            "tabular_exponent": self.tabular_exponent,
            "runtime_rank": self.runtime_rank,
            "runtime_exponent": self.runtime_exponent,
        }


def analyze(g: Grammar, omega: float = DEFAULT_OMEGA) -> AnalysisReport:
    d = contact_rank(g)
    per_rule = tuple(
        RuleAnalysis(r.rid, structural_delta(r), per_rule_d(r), configurations(r))
        for r in g.binary_rules()
    )
    balanced = is_balanced(g)
    p = max((sum(r.fo) for r in g.binary_rules()), default=1)
    work = to_single_initial(g)
    runtime_rank = space_rank(work)
    runtime_balanced = balanced if work is g else is_balanced(work)
    return AnalysisReport(
        f=max(g.fanout.values()),
        d=d,
        per_rule=per_rule,
        config_sets={nt: config_set(g, nt) for nt in sorted(g.nonterminals)},
        balanced=balanced,
        single_initial=is_single_initial(g),
        omega=omega,
        predicted_matmul_exponent=omega * d + (1 if balanced else 0),
        tabular_exponent=p,
        runtime_rank=runtime_rank,
        runtime_exponent=omega * runtime_rank + (1 if runtime_balanced else 0),
    )
