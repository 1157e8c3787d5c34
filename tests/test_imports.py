"""What each entry point imports, and the public API the lazy package keeps.

`import bkneser` resolves its re-exported names on first use and each CLI
command imports only the modules it runs. These tests read `sys.modules` in
a fresh interpreter after an import or a command, and check that every
public name still resolves to its home module's object.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bkneser
from bkneser.cli import main
from bkneser.reproduce import SUITES

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the public names and their home modules, as `bkneser` has always exported
# them
_PUBLIC = {
    "bcoloring": [
        "BColoringFailure", "BColoringVerdict", "ClassAnalysis", "Coloring",
        "CountingRecord", "ProofAnalysis", "ProofCheckFailure", "ProofStep",
        "analyze_proof_structure", "class_core", "is_b_coloring",
    ],
    "bounds": [
        "BKBound", "BoundsReport", "Ratios", "UBound", "asymptotic_table",
        "best_upper_bound", "bk_bound", "regular_bound", "u_bound",
    ],
    "kneser": [
        "DEFAULT_ENUMERATION_CAP", "Graph", "InstanceTooLarge", "KneserParams",
        "build_graph", "enumerate_vertices",
    ],
    "solver": [
        "DEFAULT_BRUTE_FORCE_CAP", "DEFAULT_NODE_BUDGET", "Budget",
        "BudgetExceeded", "SolveResult", "SolveStats", "brute_force_phi",
        "degree_bound", "exact_phi", "feasible_b_coloring", "heuristic_b_coloring",
    ],
}

# runs the CLI on argv[2:] in cwd argv[1], then writes its exit code and the
# bkneser submodules and `dataclasses` if loaded, as JSON, to stderr
_RUN_MAIN = """
import os, sys
os.chdir(sys.argv[1])
from bkneser.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("bkneser.") or m == "dataclasses")
import json
sys.stderr.write(json.dumps({"code": code, "loaded": loaded}))
"""


def _fresh_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )


def _footprint(tmp_path, *argv):
    """The exit code of `bkneser *argv` in a fresh interpreter, and the set
    of modules it loaded: bkneser submodules by their short names, and
    `dataclasses`."""
    proc = _fresh_python(_RUN_MAIN, str(tmp_path), *argv)
    result = json.loads(proc.stderr)
    return result["code"], {m.removeprefix("bkneser.") for m in result["loaded"]}


class TestImportFootprint:
    def test_help_loads_only_the_cli(self, tmp_path):
        code, loaded = _footprint(tmp_path, "--help")
        assert code == 0
        assert loaded == {"cli"}

    def test_gen_loads_only_formats_and_kneser(self, tmp_path):
        code, loaded = _footprint(tmp_path, "gen", "2", "1", "--out", "g.col")
        assert code == 0
        assert loaded - {"dataclasses"} == {"cli", "formats", "kneser"}

    def test_verify_without_proof_loads_no_search_or_bounds(self, tmp_path):
        code, _ = _footprint(tmp_path, "gen", "1", "1", "--out", "g.col")
        assert code == 0
        cert = {"params": {"n": 1, "k": 1}, "vertex_count": 3, "colors": [0, 1, 2],
                "claimed_b_coloring": True}
        (tmp_path / "c.json").write_text(json.dumps(cert))
        code, loaded = _footprint(tmp_path, "verify", "g.col", "c.json")
        assert code == 0
        assert not loaded & {"solver", "bounds", "orbits", "reproduce"}

    def test_solve_loads_no_suites(self, tmp_path):
        code, loaded = _footprint(tmp_path, "solve", "1", "1", "--cert", "c.json")
        assert code == 0
        assert "solver" in loaded
        assert "reproduce" not in loaded

    def test_import_loads_no_submodule(self):
        proc = _fresh_python(
            "import sys, bkneser\n"
            "print(sorted(m for m in sys.modules if m.startswith('bkneser.')))"
        )
        assert proc.stdout.strip() == "[]"


class TestPublicApi:
    def test_all_names_are_unchanged(self):
        assert sorted(bkneser.__all__) == sorted(
            name for names in _PUBLIC.values() for name in names
        )

    @pytest.mark.parametrize("module", sorted(_PUBLIC))
    def test_each_name_is_its_home_modules_object(self, module):
        home = import_module(f"bkneser.{module}")
        for name in _PUBLIC[module]:
            assert getattr(bkneser, name) is getattr(home, name), name

    def test_fresh_star_import_dir_and_submodule(self):
        # in a fresh interpreter, where no name has been resolved yet
        proc = _fresh_python(
            "import sys, bkneser\n"
            "missing_from_dir = set(bkneser.__all__) - set(dir(bkneser))\n"
            "ns = {}\n"
            "exec('from bkneser import *', ns)\n"
            "unbound = [n for n in bkneser.__all__ if n not in ns]\n"
            "from bkneser import formats\n"
            "print(sorted(missing_from_dir), unbound,"
            " formats is sys.modules['bkneser.formats'])"
        )
        assert proc.stdout.split() == ["[]", "[]", "True"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bkneser.no_such_name

    def test_reproduce_help_lists_every_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "--help"])
        usage = capsys.readouterr().out
        listed = usage.split("--suite {", 1)[1].split("}", 1)[0].split(",")
        assert listed == sorted(SUITES)
