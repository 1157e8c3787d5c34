"""What each entry point imports, and the public API the lazy package keeps.

`import bkneser` resolves its re-exported names on first use and each CLI
command imports only the modules it runs: no command on a plain graph loads
the standard library's dataclass or rational machinery, or `bounds`. These
tests read `sys.modules` in a fresh interpreter after an import or a command,
check that every public name still resolves to its home module's object, and
pin the record types' tuple contract.
"""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
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

# the standard library modules a command on a plain graph does not need:
# `dataclasses` pulls in `inspect`, and `fractions` pulls in `decimal`
_HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}

# runs the CLI on argv[2:] in cwd argv[1], then writes its exit code, the
# bkneser submodules it loaded and those of _HEAVY it loaded (that were not
# loaded at start-up), as JSON, to stderr
_RUN_MAIN = f"""
import os, sys
at_start = set(sys.modules)
os.chdir(sys.argv[1])
from bkneser.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(
    m for m in set(sys.modules) - at_start
    if m.startswith("bkneser.") or m in {sorted(_HEAVY)}
)
import json
sys.stderr.write(json.dumps({{"code": code, "loaded": loaded}}))
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
    of modules it loaded: bkneser submodules by their short names, and those
    of _HEAVY."""
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
        assert loaded == {"cli", "formats", "kneser"}

    def test_cli_module_loads_no_pathlib_or_typing(self):
        # without `site`, which may load both before any program starts
        proc = subprocess.run(
            [
                sys.executable, "-S", "-c",
                "import sys\n"
                f"sys.path.insert(0, {SRC!r})\n"
                "import bkneser.cli\n"
                "print(sorted({'pathlib', 'typing'} & set(sys.modules)))",
            ],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("mode", ["exact", "brute", "heuristic"])
    def test_plain_graph_commands_load_no_rationals_or_bounds(self, tmp_path, mode):
        graph = tmp_path / "c5.col"
        graph.write_text("p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
        code, loaded = _footprint(
            tmp_path, "solve", str(graph), "--mode", mode, "--cert", "c.json"
        )
        assert code == 0
        assert not loaded & (_HEAVY | {"bounds"}), loaded
        code, loaded = _footprint(tmp_path, "verify", str(graph), "c.json")
        assert code == 0
        assert not loaded & (_HEAVY | {"bounds"}), loaded

    def test_kneser_solve_and_proof_structure_load_rationals(self, tmp_path):
        # these two render or compare a rational, so they may load them
        code, loaded = _footprint(tmp_path, "solve", "2", "1", "--cert", "c.json")
        assert code == 0
        assert {"bounds", "fractions"} <= loaded
        code, _ = _footprint(tmp_path, "gen", "2", "1", "--out", "g.col")
        assert code == 0
        code, loaded = _footprint(
            tmp_path, "verify", "g.col", "c.json", "--proof-structure"
        )
        assert code == 0
        assert "fractions" in loaded

    def test_verify_without_proof_loads_no_search_or_bounds(self, tmp_path):
        code, _ = _footprint(tmp_path, "gen", "1", "1", "--out", "g.col")
        assert code == 0
        cert = {"params": {"n": 1, "k": 1}, "vertex_count": 3, "colors": [0, 1, 2],
                "claimed_b_coloring": True}
        (tmp_path / "c.json").write_text(json.dumps(cert))
        code, loaded = _footprint(tmp_path, "verify", "g.col", "c.json")
        assert code == 0
        assert not loaded & {"solver", "bounds", "orbits", "reproduce"}
        assert not loaded & _HEAVY, loaded

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


def _records():
    """One instance's fields, by keyword in field order, for each record
    type, and the defaults of the types that have any."""
    params = bkneser.KneserParams(n=2, k=1)
    coloring = bkneser.Coloring(colors=(0, 1, 0), color_count=2)
    members = bkneser.ClassAnalysis(
        color=0, members=(0, 2), core=0b10, dominating=(0,), non_intersecting=False
    )
    bk = bkneser.BKBound(applicable=False, hypothesis_met=True, i_max=None, value=None)
    ratios = bkneser.Ratios(
        two_ground_over_v=Fraction(1), degree_over_v=Fraction(3, 10)
    )
    stats = bkneser.SolveStats(nodes_explored=7, elapsed_seconds=0.5, mode="exact")
    counting = dict(
        color_count=2, vertex_count=3, ground_size=5, family_size=1,
        class_bound=Fraction(5, 3), class_bound_holds=False,
        global_bound=Fraction(13, 3), global_bound_holds=True,
    )
    records = {
        "KneserParams": dict(n=2, k=1),
        "Coloring": dict(colors=(0, 1, 0), color_count=2),
        "BColoringVerdict": dict(
            valid=False, reason=bkneser.BColoringFailure.NOT_PROPER, witnesses=None,
            all_witnesses=None, violating_edge=(0, 1), failing_color=None,
        ),
        "ProofCheckFailure": dict(step=bkneser.ProofStep.FAMILY_SIZE_BOUND, detail="d"),
        "ClassAnalysis": members._asdict(),
        "CountingRecord": counting,
        "ProofAnalysis": dict(
            classes=(members,), intersecting_family=(0,), injection={0: 2},
            counting=bkneser.CountingRecord(**counting), failures=(),
        ),
        "BKBound": bk._asdict(),
        "UBound": dict(exact=Fraction(20, 3), floor=6),
        "Ratios": ratios._asdict(),
        "BoundsReport": dict(
            params=params, regular_bound=4, bk=bk, u_exact=Fraction(20, 3),
            u_floor=6, ratios=ratios,
        ),
        "Budget": dict(max_nodes=10, time_limit=1.5),
        "SolveStats": stats._asdict(),
        "SolveResult": dict(
            phi=2, certificate=coloring, infeasible_at=(3,), stats=stats, exact=True
        ),
    }
    defaults = {
        "BColoringVerdict": dict(
            reason=None, witnesses=None, all_witnesses=None, violating_edge=None,
            failing_color=None,
        ),
        "Budget": dict(max_nodes=bkneser.DEFAULT_NODE_BUDGET, time_limit=None),
    }
    return records, defaults


_RECORDS, _DEFAULTS = _records()


class TestRecordTypes:
    """The record types are NamedTuples: equal to the tuple of their fields,
    hashable when their fields are, immutable, with a `Name(field=value)`
    repr."""

    @pytest.mark.parametrize("name", sorted(_RECORDS))
    def test_tuple_contract(self, name):
        cls = getattr(bkneser, name)
        fields = _RECORDS[name]
        assert cls._fields == tuple(fields)
        assert cls._field_defaults == _DEFAULTS.get(name, {})
        record = cls(**fields)
        assert record == cls(*fields.values()) == tuple(fields.values())
        assert tuple(iter(record)) == tuple(fields.values())
        if name != "ProofAnalysis":  # its injection is a dict
            assert hash(record) == hash(cls(*fields.values()))
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        shown = ", ".join(f"{field}={value!r}" for field, value in fields.items())
        assert repr(record) == f"{name}({shown})"

    def test_every_record_type_is_covered(self):
        records = {
            name for name in bkneser.__all__
            if hasattr(getattr(bkneser, name), "_fields")
        }
        assert records == set(_RECORDS)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: bkneser.KneserParams(0, 1), "n must be a positive integer"),
            (
                lambda: bkneser.KneserParams(n=1, k=-1),
                "k must be a nonnegative integer",
            ),
            (
                lambda: bkneser.Coloring((), 0),
                "coloring must cover at least one vertex",
            ),
            (
                lambda: bkneser.Coloring(colors=(0, 2), color_count=2),
                "colors must use exactly the indices 0..color_count-1 with no gaps",
            ),
        ],
        ids=["n", "k", "empty-coloring", "gap"],
    )
    def test_validation_messages(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_coloring_len_is_its_vertex_count(self):
        assert len(bkneser.Coloring.from_sequence([4, 4, 7, 9])) == 4
