import ast
import os
import subprocess
import sys

import lcfrs

PUBLIC = {
    # parse
    "parse_grammar", "Grammar", "GrammarError", "validate", "to_single_initial",
    # analyze
    "analyze", "AnalysisReport", "contact_rank", "is_balanced",
    # run
    "run_recognition", "RunResult", "EngineUnsupported", "extract_derivation",
    "DerivationNode",
    # oracles
    "tabular_recognize", "enumerate_language",
    # kernel
    "KERNEL_KIND",
}


class TestPublicSurface:
    def test_all_names_resolve(self):
        assert set(lcfrs.__all__) == PUBLIC
        assert len(lcfrs.__all__) == len(PUBLIC)
        for name in lcfrs.__all__:
            assert getattr(lcfrs, name) is not None, name

    def test_benchmark_worker_names_resolve_in_a_fresh_process(self):
        # perfbench/worker.py imports the package and its CLI, then reaches
        # these through the package object; its self-test and its traces
        # wrap the dotted names, and a name that no longer resolves fails
        # every benchmark run or drops a traced layer without a word
        code = (
            "import lcfrs, lcfrs.cli\n"
            "for name in ('run_recognition', 'KERNEL_KIND', 'cli', 'bundled', 'oracle'):\n"
            "    getattr(lcfrs, name)\n"
            "import lcfrs._matmul_fallback\n"
            "for path in ('recognizer.pi_copy', 'recognizer.closure_fixpoint',\n"
            "             'recognizer.enumerate_space', 'recognizer.to_single_initial',\n"
            "             'grammar.parse_grammar', 'cli.extract_derivation', 'cli.main',\n"
            "             'oracle.tabular_recognize', 'boolmat.bool_multiply',\n"
            "             'boolmat._kernel.multiply_packed',\n"
            "             '_matmul_fallback.multiply_packed', 'boolmat.BoolMatrix'):\n"
            "    obj = lcfrs\n"
            "    for part in path.split('.'):\n"
            "        obj = getattr(obj, part)\n"
            "    assert callable(obj), path\n"
            "g = lcfrs.bundled.load('cfg_anbn')\n"
            "assert lcfrs.run_recognition(g, 'a b'.split()).accepted\n"
            "assert lcfrs.oracle.tabular_recognize(g, 'a b'.split())[0]\n"
        )
        src = os.path.dirname(os.path.dirname(lcfrs.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_import_binds_bundled_in_a_fresh_process(self):
        # the shipped grammars are reached through the package object alone,
        # with no other module of the package imported first
        code = "import lcfrs\nassert lcfrs.bundled.load('count4').start == 'S'\n"
        # conftest.py puts the tested package on the subprocess's PYTHONPATH
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_imports_load_only_numpy_and_the_standard_library(self):
        # start-up time counts on every cold CLI call: importing the package
        # and its CLI must pull in no third-party package but numpy
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import lcfrs, lcfrs.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - {'lcfrs', 'numpy'} - set(sys.stdlib_module_names)))\n"
        )
        # conftest.py puts the tested package on the subprocess's PYTHONPATH
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestMemoPolicy:
    def test_two_caches_and_a_cold_call_rebuilds_its_masks(self):
        # every memo of the run path hangs off an object: masks, per-length
        # address arrays and split patterns off the address space, rule
        # data off the rule, grammar data off the grammar.  Only the
        # address spaces and the per-grammar preparation sit in
        # module-level caches, so the benchmark's cold-call rule
        # (perfbench/worker.py: Runner.prepare empties every cache_clear
        # function and every *_cache dict of the package) gives the next
        # run of a freshly parsed grammar a new space, which builds its
        # masks, arrays and patterns again.  No other module-level dict,
        # list or set of the package grows during a run
        perfbench = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "perfbench")
        code = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "import lcfrs, lcfrs.cli, worker\n"
            "from workloads import Op\n"
            "found, dicts = set(), set()\n"
            "for name, mod in list(sys.modules.items()):\n"
            "    if name != 'lcfrs' and not name.startswith('lcfrs.'):\n"
            "        continue\n"
            "    for attr, obj in vars(mod).items():\n"
            "        if callable(getattr(obj, 'cache_clear', None)):\n"
            "            found.add(obj.__qualname__)\n"
            "        elif isinstance(obj, dict) and attr.endswith('_cache'):\n"
            "            dicts.add(name + '.' + attr)\n"
            "assert found == {'enumerate_space', '_prepare'}, found\n"
            "assert not dicts, dicts\n"
            "def held():\n"
            "    return {name + '.' + attr: len(obj)\n"
            "            for name, mod in list(sys.modules.items())\n"
            "            if name == 'lcfrs' or name.startswith('lcfrs.')\n"
            "            for attr, obj in vars(mod).items()\n"
            "            if isinstance(obj, (dict, list, set))}\n"
            "before = held()\n"
            "toks = 'a a b c c d'.split()\n"
            "first = lcfrs.run_recognition(lcfrs.bundled.load('count4'), toks)\n"
            "space = first.closure.space\n"
            "assert space.masks and first.stats['phases']['masks'] > 0\n"
            "assert 'by_length' in vars(space) and space._patterns\n"
            "assert held() == before\n"
            "op = Op('count4', tuple(toks), True, 'construction', 'member', 'recognize')\n"
            "worker.Runner(lcfrs, None).prepare(op)\n"
            "again = lcfrs.run_recognition(lcfrs.bundled.load('count4'), toks)\n"
            "fresh = again.closure.space\n"
            "assert fresh is not space\n"
            "assert fresh.masks.keys() == space.masks.keys()\n"
            "assert again.stats['phases']['masks'] > 0\n"
            "assert 'by_length' in vars(fresh) and fresh.by_length is not space.by_length\n"
            "assert fresh._patterns.keys() == space._patterns.keys()\n"
            "assert fresh._patterns is not space._patterns\n"
        ) % perfbench
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _package_imports(module: str) -> set:
    """The package modules that ``module``'s source imports, read by ``ast``
    wherever the import statement stands."""
    with open(os.path.join(os.path.dirname(lcfrs.__file__), module + ".py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is one from the package
            full = ".".join(filter(None, ("lcfrs" if node.level else None, node.module)))
            names = ["lcfrs." + a.name for a in node.names] if full == "lcfrs" else [full]
        else:
            continue
        out.update(name.split(".")[1] for name in names if name.startswith("lcfrs."))
    return out


class TestModuleBoundary:
    def test_the_oracle_and_the_run_path_import_nothing_of_each_other(self):
        # the cell-by-cell product, its seed and its copy are the reference
        # the bit-plane path is checked against bit for bit, so neither side
        # may build on the other's code
        for module in ("addresses", "boolmat", "_matmul_fallback", "grammar", "recognizer"):
            assert "oracle" not in _package_imports(module), module
        assert not _package_imports("oracle") & {"recognizer", "boolmat", "_matmul_fallback"}
        # the reader sees relative imports: the run path's are found
        assert _package_imports("recognizer") >= {"addresses", "boolmat", "grammar"}
