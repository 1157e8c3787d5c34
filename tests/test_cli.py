import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from bkneser import Coloring, KneserParams, build_graph, heuristic_b_coloring
from bkneser.formats import (
    certificate_dict,
    dimacs_dumps,
    dimacs_loads,
    load_graph,
    read_certificate,
    write_graph,
)
from bkneser.solver import _eliminate_undominated, _greedy_proper

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, cwd, env=None):
    """Run `python -m bkneser` in cwd, importing the package from this tree
    whatever the working directory."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "bkneser", *args]
    return subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def _graph_file(tmp_path, text):
    """A file holding exactly the bytes of `text`, line endings included."""
    path = tmp_path / "g.col"
    path.write_bytes(text.encode())
    return path


def _load_both(tmp_path, text):
    """Parse `text` through both entry points of the one DIMACS reader,
    `dimacs_loads` and `load_graph` of a file holding it, which must agree on
    masks, params and subsets."""
    from_text = dimacs_loads(text)
    from_file = load_graph(_graph_file(tmp_path, text))
    assert from_file.masks == from_text.masks
    assert from_file.params == from_text.params
    assert from_file.subsets == from_text.subsets
    return from_text


class TestFormats:
    def test_dimacs_roundtrip_petersen(self, tmp_path, petersen):
        text = dimacs_dumps(petersen)
        lines = text.splitlines()
        assert lines[0] == "c kneser n=2 k=1"
        assert lines[1] == "p edge 10 15"
        parsed = _load_both(tmp_path, text)
        assert parsed.params == KneserParams(2, 1)
        assert list(parsed.edges()) == list(petersen.edges())

    def test_dimacs_tamper_detected(self, petersen):
        text = dimacs_dumps(petersen)
        lines = text.splitlines()
        # swap one endpoint to break the kneser edge set
        assert lines[2] == "e 1 6"
        lines[2] = "e 1 2"
        with pytest.raises(ValueError, match="does not match kneser"):
            dimacs_loads("\n".join(lines))

    def test_dimacs_untagged(self):
        g = dimacs_loads("p edge 3 2\ne 1 2\ne 2 3\n")
        assert g.params is None
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_dimacs_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dimacs_loads("p edge 3 2\ne 1 2\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            # the largest out-of-range endpoint, ahead of the count mismatch
            ("p edge 3 9\ne 1 4\ne 2 5\ne 1 2\n", "edge endpoint 5 exceeds vertex count"),
            ("e 5 1\np edge 3 1\n", "edge endpoint 5 exceeds vertex count"),
            ("p edge 3 2\ne 1 2\n", "edge count mismatch: declared 2, found 1"),
            ("p edge 3 2\ne 1 2\ne 2 1\n", "edge count mismatch: declared 2, found 1"),
            (
                "c kneser n=2 k=1\np edge 10 1\ne 1 2\n",
                "edge list does not match kneser n=2 k=1",
            ),
        ],
        ids=["bad-endpoint", "endpoint-before-p", "count", "duplicate", "kneser"],
    )
    def test_dimacs_rejects(self, tmp_path, text, message):
        path = _graph_file(tmp_path, text)
        for read, source in ((dimacs_loads, text), (load_graph, path)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read(source)

    def test_dimacs_edges_before_problem_line(self, tmp_path):
        g = _load_both(tmp_path, "e 2 3\nc note\ne 1 2\np edge 3 2\n")
        assert list(g.edges()) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_dimacs_line_endings(self, tmp_path, petersen, newline):
        # untagged, so the masks come from the edge lines, not from a rebuild
        lines = ["c petersen", *dimacs_dumps(petersen).splitlines()[1:]]
        g = _load_both(tmp_path, newline.join(lines) + newline)
        assert g.params is None
        assert g.masks == petersen.masks

    def test_load_graph_streams(self, tmp_path):
        # KG(12,4): 17,325 edge lines, about 166 KB; the reader keeps no line
        # and no copy of the text, so its peak stays near the graph's own size
        path = tmp_path / "g.col"
        write_graph(path, build_graph(KneserParams(4, 4)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            graph = load_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count == 17325
        assert peak < 2 * size, (peak, size)

    def test_certificate_roundtrip(self, tmp_path):
        cert = Coloring.from_sequence([0, 1, 0, 2])
        doc = certificate_dict(cert, KneserParams(2, 0))
        assert set(doc) == {"params", "vertex_count", "colors", "claimed_b_coloring"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        loaded, params, claimed = read_certificate(path)
        assert loaded == cert
        assert params == KneserParams(2, 0)
        assert claimed


class TestGen:
    @pytest.mark.parametrize(
        "n,k,header",
        [(2, 1, "p edge 10 15"), (1, 1, "p edge 3 3"), (2, 0, "p edge 6 3")],
    )
    def test_dimacs_headers(self, tmp_path, n, k, header):
        out = tmp_path / "g.col"
        proc = run_cli(["gen", str(n), str(k), "--out", str(out)], cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert header in out.read_text()

    def test_roundtrip_matches_build(self, tmp_path, petersen):
        out = tmp_path / "petersen.col"
        run_cli(["gen", "2", "1", "--out", str(out)], cwd=tmp_path)
        text = out.read_text()
        assert text == dimacs_dumps(petersen)
        parsed = dimacs_loads(text)
        assert list(parsed.edges()) == list(petersen.edges())

    def test_cap_error(self, tmp_path):
        # KG(30,10) has 30,045,015 vertices, over the enumeration cap
        proc = run_cli(["gen", "10", "10", "--out", "x.col"], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert "too large" in proc.stderr
        assert not (tmp_path / "x.col").exists()


class TestSolveCli:
    def test_exact_petersen_and_reverify_in_new_process(self, tmp_path):
        graph_file = tmp_path / "petersen.col"
        run_cli(["gen", "2", "1", "--out", str(graph_file)], cwd=tmp_path)
        proc = run_cli(
            ["solve", "2", "1", "--format", "json", "--cert", "c.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["phi"] == 3
        assert payload["infeasible_at"] == [4]
        assert payload["config"]["mode"] == "exact"
        verify = run_cli(["verify", str(graph_file), "c.json"], cwd=tmp_path)
        assert verify.returncode == EXIT_OK, verify.stderr
        assert "valid" in verify.stdout

    def test_complete_graph(self, tmp_path):
        proc = run_cli(["solve", "1", "4", "--format", "json"], cwd=tmp_path)
        assert json.loads(proc.stdout)["phi"] == 6

    def test_brute_mode(self, tmp_path):
        graph_file = tmp_path / "m.col"
        run_cli(["gen", "2", "0", "--out", str(graph_file)], cwd=tmp_path)
        proc = run_cli(
            ["solve", "2", "0", "--mode", "brute", "--format", "json"], cwd=tmp_path
        )
        payload = json.loads(proc.stdout)
        assert payload["phi"] == 2
        assert payload["mode"] == "brute"
        verify = run_cli(
            ["verify", str(graph_file), payload["certificate_file"]], cwd=tmp_path
        )
        assert verify.returncode == EXIT_OK

    def test_heuristic_mode_reports_lower_bound(self, tmp_path):
        graph_file = tmp_path / "kg62.col"
        run_cli(["gen", "2", "2", "--out", str(graph_file)], cwd=tmp_path)
        proc = run_cli(
            ["solve", "2", "2", "--mode", "heuristic", "--format", "json"],
            cwd=tmp_path,
        )
        payload = json.loads(proc.stdout)
        assert payload["exact"] is False
        assert 1 <= payload["phi"] <= 7
        verify = run_cli(
            ["verify", str(graph_file), payload["certificate_file"]], cwd=tmp_path
        )
        assert verify.returncode == EXIT_OK

    def test_heuristic_mode_reads_time_budget(self, tmp_path):
        # a zero budget leaves phase 1's coloring: phase 2 starts no attempt
        graph = build_graph(KneserParams(2, 10))  # KG(14,2)
        steps = [0]
        base = _eliminate_undominated(graph, _greedy_proper(graph, steps), steps)
        assert steps[0] < heuristic_b_coloring(graph).stats.nodes_explored
        graph_file = tmp_path / "kg142.col"
        run_cli(["gen", "2", "10", "--out", str(graph_file)], cwd=tmp_path)
        proc = run_cli(
            ["solve", "2", "10", "--mode", "heuristic", "--budget-seconds", "0",
             "--format", "json", "--cert", "h.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["config"]["budget_seconds"] == 0.0
        assert payload["phi"] == base.color_count
        assert payload["stats"]["nodes_explored"] == steps[0]
        assert read_certificate(tmp_path / "h.json")[0] == base
        verify = run_cli(["verify", str(graph_file), "h.json"], cwd=tmp_path)
        assert verify.returncode == EXIT_OK, verify.stderr

    @pytest.mark.parametrize(
        "cert,message",
        [
            ("nodir/c.json", "cannot write --cert nodir/c.json: no directory nodir"),
            (".", "cannot write --cert .: it is a directory"),
        ],
    )
    def test_unwritable_cert_rejected_before_the_search(self, tmp_path, cert, message):
        # KG(9,3) runs out its 60 s time budget: the path is rejected first
        start = time.monotonic()
        proc = run_cli(
            ["solve", "3", "3", "--budget-seconds", "60", "--cert", cert], cwd=tmp_path
        )
        assert time.monotonic() - start < 30
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    def test_budget_bracket_exit_code(self, tmp_path):
        proc = run_cli(
            ["solve", "2", "1", "--budget-nodes", "3", "--format", "json"],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_BUDGET
        payload = json.loads(proc.stdout)
        assert payload["status"] == "budget_exceeded"
        assert payload["bracket"]["upper"] == 4

    @pytest.mark.parametrize(
        "mode,budgets",
        [
            ("exact", {"budget_nodes": 100_000_000, "budget_seconds": None}),
            ("brute", {"brute_cap": 12}),
            ("heuristic", {"budget_seconds": None}),
        ],
    )
    def test_config_reports_only_the_budgets_the_mode_reads(
        self, tmp_path, mode, budgets
    ):
        proc = run_cli(
            ["solve", "2", "1", "--mode", mode, "--format", "json"], cwd=tmp_path
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["config"] == {
            "command": "solve",
            "target": ["2", "1"],
            "mode": mode,
            "cert": "certificate.json",
            "format": "json",
            **budgets,
        }

    def test_solve_from_file(self, tmp_path):
        graph_file = tmp_path / "m.col"
        run_cli(["gen", "2", "0", "--out", str(graph_file)], cwd=tmp_path)
        proc = run_cli(["solve", str(graph_file), "--format", "json"], cwd=tmp_path)
        assert json.loads(proc.stdout)["phi"] == 2

    def test_bad_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("not a graph\n")
        proc = run_cli(["solve", str(bad)], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE

    def test_json_output_schema_stable(self, tmp_path):
        a = run_cli(["solve", "2", "1", "--format", "json"], cwd=tmp_path).stdout
        b = run_cli(["solve", "2", "1", "--format", "json"], cwd=tmp_path).stdout
        pa, pb = json.loads(a), json.loads(b)
        assert _key_shape(pa) == _key_shape(pb)
        for key in ("phi", "infeasible_at", "config", "certificate_file"):
            assert pa[key] == pb[key]


def _key_shape(obj):
    if isinstance(obj, dict):
        return {k: _key_shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_key_shape(v) for v in obj]
    return type(obj).__name__


class TestVerifyCli:
    def test_invalid_not_proper(self, tmp_path):
        graph_file = tmp_path / "k3.col"
        run_cli(["gen", "1", "1", "--out", str(graph_file)], cwd=tmp_path)
        cert = tmp_path / "bad.json"
        cert.write_text(
            json.dumps(
                {
                    "params": {"n": 1, "k": 1},
                    "vertex_count": 3,
                    "colors": [0, 0, 1],
                    "claimed_b_coloring": True,
                }
            )
        )
        proc = run_cli(["verify", str(graph_file), str(cert)], cwd=tmp_path)
        assert proc.returncode == EXIT_FAIL
        assert "not_proper" in proc.stdout

    def test_k3_singletons_tight_chain(self, tmp_path):
        graph_file = tmp_path / "k3.col"
        run_cli(["gen", "1", "1", "--out", str(graph_file)], cwd=tmp_path)
        cert = tmp_path / "c.json"
        cert.write_text(
            json.dumps(
                {
                    "params": {"n": 1, "k": 1},
                    "vertex_count": 3,
                    "colors": [0, 1, 2],
                    "claimed_b_coloring": True,
                }
            )
        )
        proc = run_cli(
            [
                "verify",
                str(graph_file),
                str(cert),
                "--proof-structure",
                "--format",
                "json",
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        payload = json.loads(proc.stdout)
        counting = payload["proof_structure"]["counting"]
        assert counting["family_size"] == 3
        assert counting["class_bound"] == {"exact": "3/1", "decimal": "3.000000"}

    def test_proof_structure_on_petersen_certificate(self, tmp_path):
        graph_file = tmp_path / "petersen.col"
        run_cli(["gen", "2", "1", "--out", str(graph_file)], cwd=tmp_path)
        run_cli(["solve", "2", "1", "--cert", "c.json"], cwd=tmp_path)
        proc = run_cli(
            [
                "verify",
                str(graph_file),
                "c.json",
                "--proof-structure",
                "--format",
                "json",
            ],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert payload["valid"] is True
        assert payload["proof_structure"]["ok"] is True
        assert payload["proof_structure"]["counting"]["family_size"] <= 5

    def test_proof_structure_requires_kneser(self, tmp_path):
        graph_file = tmp_path / "plain.col"
        graph_file.write_text("p edge 2 1\ne 1 2\n")
        cert = tmp_path / "c.json"
        cert.write_text(
            json.dumps(
                {
                    "params": None,
                    "vertex_count": 2,
                    "colors": [0, 1],
                    "claimed_b_coloring": True,
                }
            )
        )
        proc = run_cli(
            ["verify", str(graph_file), str(cert), "--proof-structure"], cwd=tmp_path
        )
        assert proc.returncode == EXIT_USAGE

    def test_vertex_count_mismatch_is_schema_error(self, tmp_path):
        graph_file = tmp_path / "k3.col"
        run_cli(["gen", "1", "1", "--out", str(graph_file)], cwd=tmp_path)
        cert = tmp_path / "c.json"
        cert.write_text(
            json.dumps(
                {
                    "params": None,
                    "vertex_count": 2,
                    "colors": [0, 1],
                    "claimed_b_coloring": True,
                }
            )
        )
        proc = run_cli(["verify", str(graph_file), str(cert)], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE


class TestBoundsCli:
    def test_single_report_values(self, tmp_path):
        proc = run_cli(["bounds", "2", "10"], cwd=tmp_path)
        assert "d-i bound: 45" in proc.stdout
        assert "floor 39" in proc.stdout
        assert "best upper bound: 39" in proc.stdout

    def test_sharp_flag_for_n1(self, tmp_path):
        proc = run_cli(["bounds", "1", "3"], cwd=tmp_path)
        assert "sharp (n=1)" in proc.stdout
        assert "floor 5" in proc.stdout

    def test_scan_csv(self, tmp_path):
        proc = run_cli(
            ["bounds", "--scan", "2", "0", "12", "--format", "csv"], cwd=tmp_path
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 14  # header + 13 rows
        k6 = lines[7].split(",")
        assert (k6[5], k6[6]) == ("22", "21")  # bk, u_floor at the crossover

    def test_csv_rejected_for_single_report(self, tmp_path):
        proc = run_cli(["bounds", "2", "1", "--format", "csv"], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE

    def test_json_identical_across_runs(self, tmp_path):
        a = run_cli(["bounds", "2", "10", "--format", "json"], cwd=tmp_path).stdout
        b = run_cli(["bounds", "2", "10", "--format", "json"], cwd=tmp_path).stdout
        assert a == b
        assert json.loads(a)["report"]["best"] == 39


class TestReproduceCli:
    def test_sharpness_suite(self, tmp_path):
        proc = run_cli(
            ["reproduce", "--suite", "sharpness", "--out-dir", "reports"],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "result: PASS" in proc.stdout
        report = json.loads((tmp_path / "reports" / "sharpness.json").read_text())
        assert report["passed"] is True
        assert len(report["data"]["rows"]) == 7

    def test_crossover_suite(self, tmp_path):
        proc = run_cli(
            ["reproduce", "--suite", "crossover", "--out-dir", "reports"],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_OK
        report = json.loads((tmp_path / "reports" / "crossover.json").read_text())
        assert report["data"]["crossover_k"] == 6

    def test_oracle_suite_limited(self, tmp_path):
        proc = run_cli(
            ["reproduce", "--suite", "oracle", "--out-dir", "r"], cwd=tmp_path
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads((tmp_path / "r" / "oracle.json").read_text())
        assert report["data"]["seed_entries_used"] == 210
        assert report["config"] == {
            "command": "reproduce",
            "suite": "oracle",
            "out_dir": "r",
        }

    def test_ratios_suite(self, tmp_path):
        proc = run_cli(
            ["reproduce", "--suite", "ratios", "--out-dir", "r"], cwd=tmp_path
        )
        assert proc.returncode == EXIT_OK
        report = json.loads((tmp_path / "r" / "ratios.json").read_text())
        assert report["data"]["thresholds"] == {
            "2": None,
            "3": 106,
            "4": 31,
            "5": 15,
        }


_TWO_VERTEX_GRAPH = "p edge 2 1\ne 1 2\n"


def _certificate(**fields):
    """A valid certificate for _TWO_VERTEX_GRAPH, with `fields` replaced."""
    doc = {"params": None, "vertex_count": 2, "colors": [0, 1]}
    return json.dumps({**doc, "claimed_b_coloring": True, **fields})


def _bad_certificate(case_id, text, message):
    files = {"g.col": _TWO_VERTEX_GRAPH, "c.json": text}
    argv = ["verify", "g.col", "c.json"]
    return pytest.param(argv, files, f"error: certificate {message}", id=case_id)


def _bad_graph(case_id, command, text, message, name="g.col"):
    argv = {"solve": ["solve", name], "verify": ["verify", name, "c.json"]}[command]
    files = {name: text, "c.json": _certificate()}
    return pytest.param(argv, files, f"error: {message}", id=f"{command}-{case_id}")


_PARAMS_MESSAGE = "params must be null or an object with integer n and k"

# JSON graph documents: graph files are read as DIMACS only
_JSON_GRAPHS = {
    "json-no-vertex-count": {
        "format": "kneser-graph", "version": 1, "params": None, "edges": [[1, 2]]
    },
    "json-list": [[1, 2]],
    "json-string-endpoint": {
        "format": "kneser-graph", "version": 1, "params": None,
        "vertex_count": 2, "edges": [["1", 2]],
    },
}

_MALFORMED_INPUTS = [
    _bad_certificate("cert-number", "5\n", "must be a JSON object"),
    _bad_certificate("cert-list", "[0, 1]\n", "must be a JSON object"),
    _bad_certificate("params-number", _certificate(params=5), _PARAMS_MESSAGE),
    _bad_certificate(
        "params-float-n", _certificate(params={"n": 2.7, "k": 1}), _PARAMS_MESSAGE
    ),
    _bad_certificate(
        "params-string-n", _certificate(params={"n": "2", "k": 1}), _PARAMS_MESSAGE
    ),
    _bad_certificate(
        "params-bool-k", _certificate(params={"n": 2, "k": True}), _PARAMS_MESSAGE
    ),
    _bad_certificate("params-no-k", _certificate(params={"n": 2}), _PARAMS_MESSAGE),
    _bad_certificate(
        "vertex-count-float", _certificate(vertex_count=2.0),
        "vertex_count must be an integer",
    ),
    _bad_certificate(
        "vertex-count-bool", _certificate(vertex_count=True, colors=[0]),
        "vertex_count must be an integer",
    ),
    _bad_certificate(
        "color-bool", _certificate(colors=[True, False]),
        "colors must be a list of integers",
    ),
    _bad_certificate(
        "claimed-string", _certificate(claimed_b_coloring="no"),
        "claimed_b_coloring must be true or false",
    ),
    _bad_graph(
        "negative-vertices", "solve", "p edge -3 0\n",
        "malformed problem line: 'p edge -3 0'",
    ),
    _bad_graph(
        "negative-edges", "solve", "p edge 2 -1\n",
        "malformed problem line: 'p edge 2 -1'",
    ),
    _bad_graph(
        "repeated-edge", "solve", "p edge 2 1\ne 1 2\ne 2 1\n",
        "repeated edge: 2 edge lines name 1 distinct edges",
    ),
    _bad_graph(
        "non-integer-endpoint", "solve", "p edge 2 1\ne 1 x\n",
        "malformed edge line: 'e 1 x'",
    ),
    # the first token of an edge line is exactly `e`
    _bad_graph(
        "glued-edge-token", "solve", "p edge 3 1\ne1 2 3\n",
        "malformed edge line: 'e1 2 3'",
    ),
    _bad_graph(
        "edge-word", "verify", "p edge 3 1\nedge 2 3\n",
        "malformed edge line: 'edge 2 3'",
    ),
    *[
        _bad_graph(
            case_id, command, json.dumps(doc),
            f"unrecognized DIMACS line: {json.dumps(doc)!r}", name="g.json",
        )
        for command in ("solve", "verify")
        for case_id, doc in _JSON_GRAPHS.items()
    ],
    pytest.param(
        ["gen", "2", "1", "--out", "g", "--format", "json"], {},
        "error: unrecognized arguments: --format json", id="gen-format",
    ),
    pytest.param(
        ["reproduce", "--suite", "oracle", "--limit", "6"], {},
        "error: unrecognized arguments: --limit 6", id="reproduce-limit",
    ),
    pytest.param(
        ["reproduce", "--suite", "oracle", "--seed-list", "s.json"], {},
        "error: unrecognized arguments: --seed-list s.json", id="reproduce-seed-list",
    ),
]


class TestUsageErrors:
    def test_unknown_subcommand(self, tmp_path):
        proc = run_cli(["frobnicate"], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE

    def test_missing_required_flag(self, tmp_path):
        proc = run_cli(["gen", "2", "1"], cwd=tmp_path)  # no --out
        assert proc.returncode == EXIT_USAGE

    def test_solve_three_targets(self, tmp_path):
        proc = run_cli(["solve", "1", "2", "3"], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE

    # budgets come only from flags, so `env` is empty in every case; the
    # column stays so that the case ids stay the same
    @pytest.mark.parametrize(
        "args,env,message",
        [
            (["--budget-nodes", "0"], {}, "--budget-nodes"),
            (["--budget-nodes", "-5"], {}, "--budget-nodes"),
            (["--budget-seconds", "nan"], {}, "--budget-seconds must be"),
            (["--mode", "brute", "--brute-cap", "0"], {}, "--brute-cap must be"),
            (["--mode", "brute", "--brute-cap", "-3"], {}, "--brute-cap must be"),
            (["--budget-seconds", "-1"], {}, "--budget-seconds"),
            (["--mode", "heuristic", "--budget-seconds", "-0.5"], {},
             "--budget-seconds must be"),
            (["--budget-nodes", "many"], {}, "--budget-nodes"),
            (["--threads", "2"], {}, "--threads"),
            (["--seed", "1"], {}, "--seed"),
            # a budget flag the mode does not read is rejected, not dropped
            (["--mode", "brute", "--budget-nodes", "5"], {},
             "--budget-nodes does not apply to --mode brute"),
            (["--mode", "brute", "--budget-seconds", "1"], {},
             "--budget-seconds does not apply to --mode brute"),
            (["--mode", "heuristic", "--budget-nodes", "5"], {},
             "--budget-nodes does not apply to --mode heuristic"),
            (["--brute-cap", "15"], {}, "--brute-cap does not apply to --mode exact"),
        ],
    )
    def test_solve_rejects_bad_budgets_and_removed_flags(
        self, tmp_path, args, env, message
    ):
        proc = run_cli(
            ["solve", "2", "1", *args], cwd=tmp_path, env=dict(os.environ, **env)
        )
        assert proc.returncode == EXIT_USAGE
        assert message in proc.stderr

    @pytest.mark.parametrize("argv,files,message", _MALFORMED_INPUTS)
    def test_malformed_input_exits_2_with_a_message(
        self, tmp_path, argv, files, message
    ):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        proc = run_cli(argv, cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE, proc.stdout
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_non_utf8_graph_file_exits_2(self, tmp_path):
        # files are read in the locale's encoding; UTF-8 mode pins it here
        (tmp_path / "g.col").write_bytes(b"p edge 2 1\ne 1 \xff2\n")
        proc = run_cli(
            ["solve", "g.col"], cwd=tmp_path, env=dict(os.environ, PYTHONUTF8="1")
        )
        assert proc.returncode == EXIT_USAGE, proc.stdout
        assert "Traceback" not in proc.stderr
        assert "error: 'utf-8' codec can't decode byte 0xff" in proc.stderr


class TestReadme:
    def test_cli_quick_start_runs(self, tmp_path):
        # every `bkneser ...` line of the README's quick start, in order, in
        # one directory: later lines read the files earlier ones write
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI quick start", 1)[1].split("```")[1]
        commands = [
            shlex.split(line, comments=True)
            for line in block.splitlines()
            if line.startswith("bkneser ")
        ]
        assert len(commands) >= 5
        for command in commands:
            proc = run_cli(command[1:], cwd=tmp_path)
            assert proc.returncode == EXIT_OK, (command, proc.stderr)
