"""Checks of the engine's outputs that share no code with the engine.

``check_derivation`` verifies a derivation tree, as ``lcfrs parse`` prints
it, against the grammar's rules and the sentence alone: a lexical leaf's
words must equal the tokens at its spans, a binary node's spans must equal
its rule's template applied to its children's spans, and the root must
cover ``((0, n),)`` with the start symbol.  ``corrupt`` spoils a good tree
for the self-test in worker.py.
"""

from __future__ import annotations

import copy


def _apply_template(rule, left, right):
    """Parent spans from child spans: each template's variables must touch
    left to right; an empty template cannot be placed from children."""
    pick = {"b": left, "g": right}
    out = []
    for template in rule.comp:
        if not template:
            return None
        spans = []
        for var in template:
            side = pick[var.side]
            if not 1 <= var.index <= len(side):
                return None
            spans.append(side[var.index - 1])
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if end != start:
                return None
        out.append((spans[0][0], spans[-1][1]))
    return tuple(out)


def _check_node(node, rules, tokens, n, problems, path="root"):
    try:
        spans = tuple((int(l), int(r)) for l, r in node["spans"])
        rule = rules.get(node["rule"])
        children = node["children"]
        nt = node["nonterminal"]
    except (KeyError, TypeError, ValueError):
        problems.append("%s: malformed node" % path)
        return
    if rule is None:
        problems.append("%s: no rule %r" % (path, node.get("rule")))
        return
    if rule.lhs != nt:
        problems.append("%s: rule %d rewrites %s, node says %s" % (path, rule.rid, rule.lhs, nt))
    prev = 0
    for l, r in spans:
        if not prev <= l <= r <= n:
            problems.append("%s: spans %r out of order or range" % (path, spans))
            break
        prev = r
    if not rule.is_binary:
        if children:
            problems.append("%s: lexical rule %d has children" % (path, rule.rid))
        elif len(rule.words) != len(spans) or any(
            tuple(tokens[l:r]) != tuple(w) for (l, r), w in zip(spans, rule.words)
        ):
            problems.append("%s: words of rule %d do not match tokens at %r"
                            % (path, rule.rid, spans))
        return
    if len(children) != 2:
        problems.append("%s: binary rule %d needs two children" % (path, rule.rid))
        return
    for i, (child, want) in enumerate(zip(children, rule.rhs)):
        if child.get("nonterminal") != want:
            problems.append("%s.%d: expected %s" % (path, i, want))
    try:
        left = tuple((int(l), int(r)) for l, r in children[0]["spans"])
        right = tuple((int(l), int(r)) for l, r in children[1]["spans"])
    except (KeyError, TypeError, ValueError):
        problems.append("%s: malformed child spans" % path)
        return
    if _apply_template(rule, left, right) != spans:
        problems.append("%s: rule %d applied to %r and %r does not give %r"
                        % (path, rule.rid, left, right, spans))
    for i, child in enumerate(children):
        _check_node(child, rules, tokens, n, problems, "%s.%d" % (path, i))


def check_derivation(tree: dict, grammar, tokens) -> list:
    """Problems found in ``tree`` (empty when it is a valid derivation of
    ``tokens`` in ``grammar``, the grammar the engine actually ran)."""
    tokens = tuple(tokens)
    n = len(tokens)
    problems = []
    if not isinstance(tree, dict):
        return ["no tree"]
    if tree.get("nonterminal") != grammar.start:
        problems.append("root is %r, start symbol is %r" % (tree.get("nonterminal"), grammar.start))
    if tree.get("spans") != [[0, n]]:
        problems.append("root spans %r, expected [[0, %d]]" % (tree.get("spans"), n))
    _check_node(tree, {r.rid: r for r in grammar.rules}, tokens, n, problems)
    return problems


def corrupt(tree: dict) -> dict:
    """The same tree with the deepest first leaf's spans shifted by one."""
    bad = copy.deepcopy(tree)
    node = bad
    while node["children"]:
        node = node["children"][0]
    node["spans"] = [[l + 1, r + 1] for l, r in node["spans"]]
    return bad
