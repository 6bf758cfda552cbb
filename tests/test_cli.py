import errno
import io
import json
import os
import subprocess
import sys

import pytest

from lcfrs import KERNEL_KIND, grammar
from lcfrs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--grammar", "count4")
        assert code == 0
        assert "max fan-out f = 2" in out
        assert "contact rank d = 3" in out
        assert "balanced = no" in out
        assert "single-initial = yes" in out
        assert "runtime rank = 2" in out
        assert "predicted matmul exponent at runtime rank = 4.7457" in out
        assert "tabular exponent = 6" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--grammar", "itg_sep", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["d"] == 3
        assert data["balanced"] is True
        assert data["runtime_rank"] == 2
        assert data["runtime_exponent"] == pytest.approx(2 * data["omega"] + 1)

    def test_omega_flag(self, capsys):
        _, out2, _ = run(capsys, "analyze", "--grammar", "cfg_anbn", "--omega", "2")
        assert "omega=2" in out2 or "predicted matmul exponent = 2.0000" in out2

    def test_grammar_file(self, capsys, tmp_path):
        path = tmp_path / "toy.lcfrs"
        path.write_text("start S\nS -> : 'hi'\n")
        code, out, _ = run(capsys, "analyze", "--grammar", str(path))
        assert code == 0
        assert "contact rank d = 1" in out

    def test_unknown_grammar_is_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--grammar", "no_such_grammar")
        assert code == 2
        assert err.startswith("error:")


class TestRecognize:
    def test_accept(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--grammar", "cfg_anbn", "--sentence", "a a b b"
        )
        assert code == 0
        assert out.strip() == "ACCEPT"

    def test_reject(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--grammar", "cfg_anbn", "--sentence", "a b a"
        )
        assert code == 1
        assert out.strip() == "REJECT"

    def test_tabular_engine(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--grammar", "itg_sep",
            "--sentence", "x y # y x", "--engine", "tabular",
        )
        assert code == 0
        assert out.strip() == "ACCEPT"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--grammar", "count4",
            "--sentence", "a b c d", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["accepted"] is True
        assert data["sentence"] == ["a", "b", "c", "d"]
        assert data["stats"]["n"] == 4

    def test_json_output_unchanged(self, capsys):
        code, out, _ = run(
            capsys, "recognize", "--grammar", "itg_sep",
            "--sentence", "x y # y x", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["stats"].pop("phases")
        assert data["stats"].pop("rounds") == [
            {"muls": m, "new_facts": f}
            for m, f in ((2, 3), (2, 0))
        ]
        assert data == {
            "sentence": ["x", "y", "#", "y", "x"],
            "accepted": True,
            "stats": {
                "n": 5, "rank": 2, "dim": 27, "kernel": KERNEL_KIND,
                "muls": 4, "iterations": 2, "facts": 14, "converted": False,
                "engine": "matmul",
            },
        }

    def test_sentence_from_file(self, capsys, tmp_path):
        path = tmp_path / "sent.txt"
        path.write_text("a b c d\n")
        code, out, _ = run(
            capsys, "recognize", "--grammar", "count4", "--sentence", "@" + str(path)
        )
        assert code == 0 and out.strip() == "ACCEPT"

    def test_backend_flags(self, capsys):
        # recognition has one configuration, and recognize/parse take no
        # option they would ignore (omega only changes analyze's figures,
        # and parse always prints JSON)
        for cmd, flag in (
            ("recognize", ["--backend", "bitset"]),
            ("recognize", ["--closure", "fixpoint"]),
            ("recognize", ["--omega", "2"]),
            ("parse", ["--omega", "2"]),
            ("parse", ["--json"]),
        ):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--grammar", "count4", "--sentence", "a b c d"] + flag)
            assert exc.value.code == 2
            assert "unrecognized arguments: %s" % flag[0] in capsys.readouterr().err


class TestParse:
    def test_tree_output(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--grammar", "count4", "--sentence", "a b c d"
        )
        assert code == 0
        tree = json.loads(out)
        assert tree["nonterminal"] == "S"
        assert tree["spans"] == [[0, 4]]
        assert len(tree["children"]) == 2

    def test_reject_prints_null(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--grammar", "count4", "--sentence", "a b"
        )
        assert code == 1
        assert out.strip() == "null"

    def test_converted_grammar_parses(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--grammar", "dual_initial_demo",
            "--sentence", "a b a a b a",
        )
        assert code == 0
        assert json.loads(out)["nonterminal"] == "S"

    def test_each_grammar_is_checked_once_per_call(self, capsys, monkeypatch):
        # parsing checks the grammar, and the run reuses that result
        checked = []
        real = grammar._find_problems

        def spy(g):
            checked.append(g)
            return real(g)
        monkeypatch.setattr(grammar, "_find_problems", spy)
        for cmd, name, sentence, grammars in (
            ("recognize", "count4", "a b c d", 1),
            ("parse", "count4", "a b c d", 1),
            ("parse", "count4", "a b", 1),
            # the converted grammar is a second grammar object, checked once too
            ("parse", "dual_initial_demo", "a b a a b a", 2),
        ):
            checked.clear()
            run(capsys, cmd, "--grammar", name, "--sentence", sentence)
            assert len(checked) == len({id(g) for g in checked}) == grammars, (cmd, name)


USAGE = "usage: lcfrs [-h] {analyze,recognize,parse} ...\n"
RECOGNIZE_USAGE = (
    "usage: lcfrs recognize [-h] --grammar GRAMMAR --sentence SENTENCE [--json]\n"
    "                       [--engine {matmul,tabular}]\n"
)

# (argv, exit code, stdout, stderr) as the full parser tree prints them,
# help wrapped at 80 columns; a call that builds one subcommand's parser
# must print the same
SURFACE = [
    (["-h"], 0,
     USAGE + "\n"
     "Recognition for binary LCFRS by matrix transitive closure.\n"
     "\n"
     "positional arguments:\n"
     "  {analyze,recognize,parse}\n"
     "    analyze             report fan-out, contact rank, balance, exponents\n"
     "    recognize           ACCEPT/REJECT a sentence\n"
     "    parse               emit a derivation tree as JSON\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n",
     ""),
    (["analyze", "-h"], 0,
     "usage: lcfrs analyze [-h] --grammar GRAMMAR [--json] [--omega OMEGA]\n"
     "\n"
     "options:\n"
     "  -h, --help         show this help message and exit\n"
     "  --grammar GRAMMAR  grammar file or bundled name (cfg_anbn, count4,\n"
     "                     tag_style, itg_sep, dual_initial_demo)\n"
     "  --json\n"
     "  --omega OMEGA\n",
     ""),
    (["recognize", "-h"], 0,
     RECOGNIZE_USAGE + "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --grammar GRAMMAR     grammar file or bundled name (cfg_anbn, count4,\n"
     "                        tag_style, itg_sep, dual_initial_demo)\n"
     "  --sentence SENTENCE   whitespace-separated tokens; @FILE reads a file\n"
     "  --json\n"
     "  --engine {matmul,tabular}\n",
     ""),
    (["parse", "-h"], 0,
     "usage: lcfrs parse [-h] --grammar GRAMMAR --sentence SENTENCE\n"
     "\n"
     "options:\n"
     "  -h, --help           show this help message and exit\n"
     "  --grammar GRAMMAR    grammar file or bundled name (cfg_anbn, count4,\n"
     "                       tag_style, itg_sep, dual_initial_demo)\n"
     "  --sentence SENTENCE  whitespace-separated tokens; @FILE reads a file\n",
     ""),
    (["recognize", "--sentence", "a b"], 2, "",
     RECOGNIZE_USAGE +
     "lcfrs recognize: error: the following arguments are required: --grammar\n"),
    # a subcommand's leftover arguments are reported by the top parser
    (["recognize", "--grammar", "count4", "--sentence", "a b c d", "--omega", "2"], 2, "",
     USAGE + "lcfrs: error: unrecognized arguments: --omega 2\n"),
    ([], 2, "", USAGE + "lcfrs: error: the following arguments are required: cmd\n"),
]


class TestSurface:
    @pytest.mark.parametrize("argv,code,out,err", SURFACE,
                             ids=[" ".join(c[0]) or "no-args" for c in SURFACE])
    def test_output_is_pinned(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr() == (out, err)

    def test_no_bench_subcommand(self, capsys):
        # the one benchmark is perfbench/; the CLI carries no second one
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", USAGE + (
            "lcfrs: error: argument cmd: invalid choice: 'bench' "
            "(choose from 'analyze', 'recognize', 'parse')\n"))


class TestErrors:
    def test_missing_grammar_file(self, capsys):
        code, _, err = run(
            capsys, "recognize", "--grammar", "/nonexistent.lcfrs",
            "--sentence", "a",
        )
        assert code == 2
        assert "error:" in err

    def test_closed_stdout_is_not_an_error(self, capsys, monkeypatch, tmp_path):
        # ``lcfrs parse ... | head -1``: the reader closes the pipe early
        class ClosedPipe(io.TextIOBase):
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            code = main(["parse", "--grammar", "count4", "--sentence", "a b c d"])
            monkeypatch.undo()
            # what is left in stdout's buffer goes nowhere at exit
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lcfrs.cli", "analyze", "--grammar", "tag_style"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "contact rank d = 2" in proc.stdout
