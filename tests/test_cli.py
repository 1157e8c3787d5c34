import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from bkneser import (
    Coloring,
    Graph,
    InstanceTooLarge,
    KneserParams,
    build_graph,
    heuristic_b_coloring,
)
from bkneser import formats
from bkneser.cli import main
from bkneser.formats import (
    _dimacs_read,
    certificate_dict,
    dimacs_dumps,
    dimacs_loads,
    fraction_decimal_str,
    load_graph,
    read_certificate,
    write_graph,
)
from bkneser.reproduce import SUITES
from bkneser.solver import (
    Budget,
    BudgetExceeded,
    _BudgetTracker,
    _eliminate_undominated,
    _greedy_proper,
)
from oracles import naive_dimacs, reference_dimacs_read_lines

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
        assert parsed.masks == petersen.masks

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
        assert g.masks == (0b010, 0b101, 0b010)

    def test_dimacs_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dimacs_loads("p edge 3 2\ne 1 2\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            # the first out-of-range endpoint, ahead of the count mismatch
            ("p edge 3 9\ne 1 4\ne 2 5\ne 1 2\n", "edge endpoint 4 exceeds vertex count"),
            ("e 5 1\np edge 3 1\n", "edge line before the 'p edge' header: 'e 5 1'"),
            ("p edge 3 2\ne 1 2\n", "edge count mismatch: declared 2, found 1"),
            ("p edge 3 2\ne 1 2\ne 2 1\n", "edge count mismatch: declared 2, found 1"),
            (
                "c kneser n=2 k=1\np edge 10 1\ne 1 2\n",
                "edge list does not match kneser n=2 k=1",
            ),
            ("p edge 3 1\ne 1 2\np edge 5 1\n", "repeated problem line: 'p edge 5 1'"),
            # a second tag is rejected, not read over the first
            (
                "c kneser n=3 k=0\n" + dimacs_dumps(build_graph(KneserParams(2, 1))),
                "repeated kneser tag: 'c kneser n=2 k=1'",
            ),
        ],
        ids=[
            "bad-endpoint",
            "endpoint-before-p",
            "count",
            "duplicate",
            "kneser",
            "repeated-p",
            "repeated-tag",
        ],
    )
    def test_dimacs_rejects(self, tmp_path, text, message):
        path = _graph_file(tmp_path, text)
        for read, source in ((dimacs_loads, text), (load_graph, path)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read(source)

    def test_dimacs_edges_before_problem_line(self, tmp_path):
        text = "e 2 3\nc note\ne 1 2\np edge 3 2\n"
        expected = (ValueError, "edge line before the 'p edge' header: 'e 2 3'")
        assert _outcome(dimacs_loads, text) == expected
        assert _outcome(load_graph, _graph_file(tmp_path, text)) == expected

    @pytest.mark.parametrize(
        "text,error,message",
        [
            # 6 MB of edge lines that no p line precedes
            (
                "e 1 2\n" * 1_000_000 + "p edge 2 1\n",
                ValueError,
                "edge line before the 'p edge' header: 'e 1 2'",
            ),
            (
                "p edge 1000001 0\n",
                InstanceTooLarge,
                "instance too large: 1000001 vertices exceed the enumeration cap "
                "1000000",
            ),
        ],
        ids=["edges-first", "vertices-over-cap"],
    )
    def test_dimacs_rejects_before_growing(self, tmp_path, text, error, message):
        path = _graph_file(tmp_path, text)
        tracemalloc.start()
        try:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                load_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

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
        cert = Coloring.from_sequence([0, 1, 0, 2, 2, 1])  # KG(4,2): 6 vertices
        doc = certificate_dict(cert, KneserParams(2, 0))
        assert set(doc) == {"params", "vertex_count", "colors", "claimed_b_coloring"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        loaded, params, claimed = read_certificate(path)
        assert loaded == cert
        assert params == KneserParams(2, 0)
        assert claimed


def _outcome(read, source):
    """What a reader makes of a source: the graph's masks, params and
    subsets, or the type and message of what it raised."""
    try:
        graph = read(source)
    except Exception as exc:
        return type(exc), str(exc)
    return graph.masks, graph.params, graph.subsets


def _line_loop(text):
    """`_dimacs_read` on the lines of `text` as a file would give them, from a
    stream that cannot seek, so that only the line loop reads them."""
    return _dimacs_read(line for line in io.StringIO(text, newline=None))


def _utf8_outcomes(path):
    """What `load_graph` and the line loop alone make of a graph file, in a
    child in UTF-8 mode, so that decoding does not follow the locale: the
    masks, or the name and message of what was raised. Then the exit code
    and standard error of `verify` of that file, in UTF-8 mode too."""
    script = (
        "import json, sys\n"
        "from bkneser.formats import _dimacs_read_lines, load_graph\n"
        "def outcome(read):\n"
        "    try:\n"
        "        return read().masks\n"
        "    except Exception as exc:\n"
        "        return [type(exc).__name__, str(exc)]\n"
        "with open(sys.argv[1]) as lines:\n"
        "    loop = outcome(lambda: _dimacs_read_lines(lines))\n"
        "print(json.dumps([outcome(lambda: load_graph(sys.argv[1])), loop]))\n"
    )
    env = dict(os.environ, PYTHONUTF8="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=dict(env, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, loop = json.loads(proc.stdout)
    (path.parent / "c.json").write_text(_certificate())
    verify = run_cli(["verify", path.name, "c.json"], cwd=path.parent, env=env)
    return loaded, loop, (verify.returncode, verify.stderr)


def _reverse_line(line):
    e, u, v = line.split()
    return f"{e} {v} {u}\n"


# single edits of the canonical KG(7,2) text, whose lines run "c kneser n=2
# k=3", "p edge 21 105", "e 1 6", "e 1 9", "e 1 10", ...; each with the
# message the line loop rejects the result with, or None where it accepts it
_KG72_EDITS = {
    "unchanged": (lambda text: text, None),
    "drop-edge": (
        lambda text: text.replace("\ne 1 9\n", "\n", 1),
        "edge count mismatch: declared 105, found 104",
    ),
    "repeat-edge": (
        lambda text: text.replace("\ne 1 9\n", "\ne 1 9\ne 1 9\n", 1),
        "repeated edge: 106 edge lines name 105 distinct edges",
    ),
    "swap-edges": (
        lambda text: text.replace("\ne 1 9\ne 1 10\n", "\ne 1 10\ne 1 9\n", 1),
        None,
    ),
    "swap-header": (
        lambda text: text.replace(
            "c kneser n=2 k=3\np edge 21 105\n", "p edge 21 105\nc kneser n=2 k=3\n", 1
        ),
        None,
    ),
    "reversed-edge": (lambda text: text.replace("\ne 1 9\n", "\ne 9 1\n", 1), None),
    "leading-zero": (lambda text: text.replace("\ne 1 9\n", "\ne 01 9\n", 1), None),
    "crlf": (lambda text: text.replace("\n", "\r\n"), None),
    "trailing-blank": (lambda text: text + "\n", None),
    "trailing-comment": (lambda text: text + "c end\n", None),
    "trailing-edge": (
        lambda text: text + "e 1 2\n",
        "edge count mismatch: declared 105, found 106",
    ),
    "no-final-newline": (lambda text: text[:-1], None),
    "tag-n0": (
        lambda text: text.replace("n=2 ", "n=0 ", 1),
        "n must be a positive integer",
    ),
    "tag-leading-zero": (lambda text: text.replace("k=3", "k=03", 1), None),
    "repeated-tag": (
        lambda text: "c kneser n=3 k=0\n" + text,
        "repeated kneser tag: 'c kneser n=2 k=3'",
    ),
    "p-disagrees": (
        lambda text: text.replace("p edge 21 105", "p edge 21 104", 1),
        "edge count mismatch: declared 104, found 105",
    ),
}


def _plain_edge_lines(seed):
    """The vertex count and edge lines of a seeded G(n, p): each edge once,
    its endpoints in either order, the lines shuffled."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    p = rng.choice((0.05, 0.2, 0.5, 0.8))
    lines = [
        f"e {u} {v}" if rng.random() < 0.5 else f"e {v} {u}"
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    rng.shuffle(lines)
    return n, lines


def _plain_text(seed, n, lines, declared=None):
    """A DIMACS file of these edge lines under a `p` line declaring `declared`
    edges (default: one per line), with comment and blank lines mixed in
    and, by seed, tab separators and CRLF endings."""
    rng = random.Random(seed)
    body = list(lines)
    for _ in range(rng.randint(0, 4)):
        body.insert(rng.randint(0, len(body)), rng.choice(("c a comment", "", "  ")))
    header = ["c plain", f"p edge {n} {len(lines) if declared is None else declared}"]
    text = "\n".join(header + body) + "\n"
    if rng.random() < 0.3:
        text = text.replace(" ", "\t")
    if rng.random() < 0.3:
        text = text.replace("\n", "\r\n")
    return text


def _both_loops(text):
    """The package's and the reference's line loop on the same lines, line
    endings kept."""
    lines = io.StringIO(text, newline="").readlines()
    return (
        _outcome(formats._dimacs_read_lines, lines),
        _outcome(reference_dimacs_read_lines, lines),
    )


# edits of a plain file's edge lines, each made where the label table is still
# empty (every label is then past its end) and where it holds every label
_PLAIN_EDITS = {
    "self-loop": lambda n, lines: ["e 3 3"],
    "self-loop-two-spellings": lambda n, lines: ["e 3 03"],
    "repeated-edge-two-spellings": lambda n, lines: ["e 1 2", "e 01 2"],
    "respelled": lambda n, lines: ["e 0{1} +{2}".format(*lines.pop().split())],
    "endpoint-0": lambda n, lines: ["e 0 1"],
    "endpoint-past-v": lambda n, lines: [f"e 1 {n + 1}"],
    "not-a-number": lambda n, lines: ["e 1 x"],
}


class TestDimacsWriter:
    @pytest.mark.parametrize(
        "graph",
        [
            Graph([]),
            Graph.from_edges(1, []),
            Graph.from_edges(4, []),
            # isolated vertices 0, 2 and 5; vertex 4 has no higher neighbour
            Graph.from_edges(6, [(1, 3), (3, 4), (1, 4)]),
            # only the last vertex has no higher neighbour
            Graph.from_edges(3, [(0, 1), (1, 2)]),
            build_graph(KneserParams(2, 1)),
            build_graph(KneserParams(3, 2)),
            build_graph(KneserParams(1, 4)),
        ],
        ids=[
            "no-vertices",
            "one-vertex",
            "no-edges",
            "isolated",
            "path",
            "kg52",
            "kg83",
            "k6",
        ],
    )
    def test_dumps_equals_the_naive_writer(self, graph):
        assert dimacs_dumps(graph) == naive_dimacs(graph)

    def test_dumps_equals_the_naive_writer_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(60):
            size = rng.randrange(0, 70)
            p = rng.random()
            edges = [
                (u, v)
                for u in range(size)
                for v in range(u + 1, size)
                if rng.random() < p
            ]
            graph = Graph.from_edges(size, edges)
            assert dimacs_dumps(graph) == naive_dimacs(graph), (size, p)


class TestDimacsReader:
    @pytest.mark.parametrize("edit", list(_KG72_EDITS))
    def test_single_edits_read_as_the_line_loop_reads_them(self, tmp_path, edit):
        graph = build_graph(KneserParams(2, 3))
        change, expected = _KG72_EDITS[edit]
        text = change(dimacs_dumps(graph))
        assert text != dimacs_dumps(graph) or edit == "unchanged"
        reference = _outcome(_line_loop, text)
        if expected is None:
            assert reference == (graph.masks, graph.params, graph.subsets)
        else:
            assert reference == (ValueError, expected)
        assert _outcome(dimacs_loads, text) == reference
        assert _outcome(load_graph, _graph_file(tmp_path, text)) == reference

    @pytest.mark.parametrize(
        "n,k,at",
        [(2, 3, 0.5), (4, 4, 0.9)],
        ids=["kg72", "kg124-past-the-first-chunk"],
    )
    def test_bad_byte_fails_as_in_the_line_loop(self, tmp_path, n, k, at):
        # files are read in the locale's encoding; UTF-8 mode pins it here.
        # In KG(12,4) the byte lies past the first chunk a text file decodes,
        # so the comparison has begun before it meets the byte
        data = bytearray(dimacs_dumps(build_graph(KneserParams(n, k))).encode())
        digit = data.index(b"e ", int(len(data) * at)) + 2
        data[digit] = 0xFF
        path = tmp_path / "g.col"
        path.write_bytes(data)
        loaded, loop, verify = _utf8_outcomes(path)
        assert loop[0] == "UnicodeDecodeError"
        assert "can't decode byte 0xff" in loop[1]
        assert loaded == loop
        assert verify == (EXIT_USAGE, f"error: {loop[1]}\n")

    def test_count_too_long_for_int_fails_as_in_the_line_loop(self, tmp_path):
        # int() refuses the 5,000-digit count in the comparison; the line
        # loop then reads the file from its start, as it reads it alone,
        # where going on after the `p` line would reject the first edge line
        # as coming before it
        text = dimacs_dumps(build_graph(KneserParams(2, 3)))
        text = text.replace("p edge 21 ", f"p edge {'9' * 5000} ")
        path = _graph_file(tmp_path, text)
        loaded, loop, verify = _utf8_outcomes(path)
        assert loop[0] == "ValueError"
        assert loop[1].startswith("Exceeds the limit (4300"), loop
        assert loaded == loop
        assert verify == (EXIT_USAGE, f"error: {loop[1]}\n")

    def test_tag_disagreeing_with_the_p_line_builds_nothing(self, tmp_path):
        # KG(23,5) would take 0.5 s and over 150 MB to build
        text = "c kneser n=5 k=13\np edge 1 0\n"
        path = _graph_file(tmp_path, text)
        for read, source in ((dimacs_loads, text), (load_graph, path)):
            tracemalloc.start()
            try:
                with pytest.raises(
                    ValueError, match="^edge list does not match kneser n=5 k=13$"
                ):
                    read(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, peak

    def test_short_file_whose_p_line_agrees_with_its_tag_builds_nothing(
        self, tmp_path
    ):
        # the p line holds KG(23,5)'s counts, but no edge line follows: the
        # comparison is not tried, and the line loop rejects the file on its
        # edge count, as it would with no fast path
        text = "c kneser n=5 k=13\np edge 33649 144152316\n"
        path = _graph_file(tmp_path, text)
        for read, source in ((dimacs_loads, text), (load_graph, path)):
            tracemalloc.start()
            try:
                with pytest.raises(
                    ValueError,
                    match="^edge count mismatch: declared 144152316, found 0$",
                ):
                    read(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, peak

    @pytest.mark.parametrize("edit", ["unchanged", "reversed-edge", "trailing-edge"])
    def test_tagged_graph_is_built_once(self, tmp_path, monkeypatch, edit):
        # canonical text is accepted on the comparison's one build; a file
        # that stops matching is read by the line loop, as it reads it alone
        text = _KG72_EDITS[edit][0](dimacs_dumps(build_graph(KneserParams(2, 3))))
        path = _graph_file(tmp_path, text)
        calls = []

        def counted_build_graph(params):
            calls.append(params)
            return build_graph(params)

        reference = _outcome(_line_loop, text)
        monkeypatch.setattr(formats, "build_graph", counted_build_graph)
        for read, source in ((dimacs_loads, text), (load_graph, path)):
            calls.clear()
            assert _outcome(read, source) == reference
            if edit == "unchanged":
                assert calls == [KneserParams(2, 3)]

    def test_canonical_text_skips_the_line_loop(self, tmp_path, monkeypatch):
        graph = build_graph(KneserParams(2, 3))
        text = dimacs_dumps(graph)
        path = _graph_file(tmp_path, text)

        def no_line_loop(lines):
            raise AssertionError("the line loop read a canonical file")

        monkeypatch.setattr(formats, "_dimacs_read_lines", no_line_loop)
        for read, source in ((dimacs_loads, text), (load_graph, path)):
            assert _outcome(read, source) == (graph.masks, graph.params, graph.subsets)

    @pytest.mark.parametrize("edit", ["unchanged", "reversed-edge"])
    def test_tagged_file_loads_through_a_pipe(self, tmp_path, edit):
        # a pipe cannot seek, so the line loop reads it from the start
        graph = build_graph(KneserParams(2, 3))
        pipe = tmp_path / "g.pipe"
        os.mkfifo(pipe)
        text = _KG72_EDITS[edit][0](dimacs_dumps(graph))
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        loaded = load_graph(pipe)
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert (loaded.masks, loaded.params) == (graph.masks, graph.params)

    def test_line_loop_matches_the_reference_on_random_graphs(self):
        built = 0
        for seed in range(240):
            n, lines = _plain_edge_lines(seed)
            ours, reference = _both_loops(_plain_text(seed, n, lines))
            assert ours == reference, seed
            assert not isinstance(ours[0], type), (seed, ours)
            built += len(lines) > n
        assert built >= 100  # files long enough for the label table

    @pytest.mark.parametrize("where", ["table-empty", "table-full"])
    @pytest.mark.parametrize("edit", list(_PLAIN_EDITS))
    def test_line_loop_edits_match_the_reference(self, edit, where):
        for seed in range(300):
            n, lines = _plain_edge_lines(seed)
            if n >= 3 and len(lines) > 2 * n:
                break
        changed = _PLAIN_EDITS[edit](n, lines)
        lines = changed + lines if where == "table-empty" else lines + changed
        ours, reference = _both_loops(_plain_text(seed, n, lines))
        assert ours == reference
        assert isinstance(reference[0], type) == (edit != "respelled"), reference

    @pytest.mark.parametrize("change", ["edge-before-p", "too-few", "too-many"])
    def test_line_loop_header_edits_match_the_reference(self, change):
        for seed in range(40):
            n, lines = _plain_edge_lines(seed)
            declared = len(lines) + {"too-few": -1, "too-many": 1}.get(change, 0)
            text = _plain_text(seed, n, lines, declared)
            if change == "edge-before-p":
                text = "e 1 2\n" + text
            ours, reference = _both_loops(text)
            assert ours == reference, seed
            assert isinstance(reference[0], type), seed

    def test_label_table_follows_the_edge_lines_not_the_header(self):
        # one edge line under a header of a million vertices: the table stays
        # empty, so the loop needs no more than the reference's int() loop
        lines = ["p edge 1000000 1\n", "e 1 1000000\n"]
        peaks = []
        for loop in (reference_dimacs_read_lines, formats._dimacs_read_lines):
            tracemalloc.start()
            try:
                assert loop(lines).edge_count == 1
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1_000_000, peaks

    def test_line_loop_streams(self, tmp_path):
        # KG(12,4) with every edge line written `e v u`: the comparison stops
        # at the first edge line and the line loop reads the whole file,
        # within the bound of test_load_graph_streams
        graph = build_graph(KneserParams(4, 4))
        text = "".join(
            _reverse_line(line) if line.startswith("e ") else line
            for line in dimacs_dumps(graph).splitlines(keepends=True)
        )
        path = _graph_file(tmp_path, text)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.masks == graph.masks
        assert peak < 2 * size, (peak, size)


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
        assert parsed.masks == petersen.masks

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
        # the best bound is 3, so nothing is refuted
        assert payload["infeasible_at"] == []
        assert payload["config"]["mode"] == "exact"
        verify = run_cli(["verify", str(graph_file), "c.json"], cwd=tmp_path)
        assert verify.returncode == EXIT_OK, verify.stderr
        assert "valid" in verify.stdout

    def test_complete_graph(self, tmp_path):
        proc = run_cli(["solve", "1", "4", "--format", "json"], cwd=tmp_path)
        assert json.loads(proc.stdout)["phi"] == 6

    def test_brute_mode_past_the_default_recursion_limit(self, tmp_path):
        # the oracle recurses once per vertex
        (tmp_path / "e.col").write_text("p edge 1100 0\n")
        proc = run_cli(
            ["solve", "e.col", "--mode", "brute", "--brute-cap", "2000"], cwd=tmp_path
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("phi 1 (brute mode)")

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
        first = _BudgetTracker(Budget())
        base = _eliminate_undominated(graph, _greedy_proper(graph, first), first)
        assert first.nodes < heuristic_b_coloring(graph).stats.nodes_explored
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
        assert payload["stats"]["nodes_explored"] == first.nodes
        assert read_certificate(tmp_path / "h.json")[0] == base
        verify = run_cli(["verify", str(graph_file), "h.json"], cwd=tmp_path)
        assert verify.returncode == EXIT_OK, verify.stderr

    def test_deep_search_in_process(self, tmp_path, capsys):
        # a 1,100-vertex path beside a Petersen graph: the search at k = 4
        # colors more vertices in one branch than the default recursion limit
        # of 1,000 frames allows
        edges = [(v, v + 1) for v in range(1099)]
        for i in range(5):
            edges += [(1100 + i, 1100 + (i + 1) % 5), (1100 + i, 1105 + i)]
            edges.append((1105 + i, 1105 + (i + 2) % 5))
        graph_file = str(tmp_path / "deep.col")
        write_graph(graph_file, Graph.from_edges(1110, edges))
        limit = sys.getrecursionlimit()
        cert = str(tmp_path / "c.json")
        argv = ["solve", graph_file, "--budget-nodes", "100000", "--format", "json"]
        assert main([*argv, "--cert", cert]) == EXIT_BUDGET
        bracket = json.loads(capsys.readouterr().out)["bracket"]
        assert bracket == {"lower": 3, "upper": 4}
        assert sys.getrecursionlimit() == limit

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

    def test_budget_bracket_exit_code(self, tmp_path, petersen):
        # an untagged Petersen graph: its bound is the degree bound, 4, which
        # the search must refute
        write_graph(str(tmp_path / "petersen.col"), Graph(petersen.masks))
        proc = run_cli(
            ["solve", "petersen.col", "--budget-nodes", "3", "--format", "json"],
            cwd=tmp_path,
        )
        assert proc.returncode == EXIT_BUDGET
        payload = json.loads(proc.stdout)
        assert payload["status"] == "budget_exceeded"
        assert payload["bracket"]["upper"] == 4

    # The node budget covers the heuristic's steps. KG(16,4): the first
    # candidate, largest-first plus elimination, takes 1,820 steps and always
    # completes; no seeded candidate starts after it, where the solve once
    # ran all 12,671 heuristic steps and reported 2 nodes. KG(7,2): where the
    # solve once returned phi 7 after 42 steps, above its 10-node budget,
    # the Steiner triple system candidate no longer starts.
    @pytest.mark.parametrize(
        "n,k,budget,bracket", [(4, 8, 1, [10, 496]), (2, 3, 10, [5, 7])]
    )
    def test_node_budget_counts_the_heuristic(self, tmp_path, n, k, budget, bracket):
        graph = build_graph(KneserParams(n, k))
        first = _BudgetTracker(Budget())
        base = _eliminate_undominated(graph, _greedy_proper(graph, first), first)
        assert first.nodes == {(4, 8): 1_820, (2, 3): 21}[n, k]
        start = time.monotonic()
        proc = run_cli(
            ["solve", str(n), str(k), "--budget-nodes", str(budget), "--format", "json",
             "--cert", "c.json"],
            cwd=tmp_path,
        )
        assert time.monotonic() - start < 10
        assert proc.returncode == EXIT_BUDGET, proc.stderr
        payload = json.loads(proc.stdout)
        assert [payload["bracket"]["lower"], payload["bracket"]["upper"]] == bracket
        assert payload["tested_k"] == bracket[1]
        assert payload["nodes_explored"] == first.nodes
        assert read_certificate(tmp_path / "c.json")[0] == base

    # KG(9,2) and KG(13,2): the heuristic's Steiner triple system reaches
    # the best bound, so the solve searches nothing
    @pytest.mark.parametrize("k,phi", [(5, 12), (9, 26)])
    def test_steiner_solve_is_exact_and_repeatable(self, tmp_path, k, phi):
        runs = []
        for cert in ("a.json", "b.json"):
            start = time.monotonic()
            proc = run_cli(
                ["solve", "2", str(k), "--format", "json", "--cert", cert],
                cwd=tmp_path,
            )
            assert time.monotonic() - start < 10
            assert proc.returncode == EXIT_OK, proc.stderr
            runs.append(json.loads(proc.stdout))
        first = runs[0]
        assert (first["phi"], first["infeasible_at"]) == (phi, [])
        for payload in runs:
            del payload["stats"]["elapsed_seconds"]
            del payload["config"]["cert"], payload["certificate_file"]
        assert runs[0] == runs[1]
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
        run_cli(["gen", "2", str(k), "--out", "g.col"], cwd=tmp_path)
        verify = run_cli(
            ["verify", "g.col", "a.json", "--proof-structure", "--format", "json"],
            cwd=tmp_path,
        )
        assert verify.returncode == EXIT_OK, verify.stderr
        assert json.loads(verify.stdout)["proof_structure"]["ok"] is True

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
        assert "core-avoidance bound: 30" in proc.stdout
        assert "best upper bound: 30" in proc.stdout

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
        # the header is the one the schema documents
        schemas = Path(__file__).resolve().parent.parent / "docs" / "SCHEMAS.md"
        documented = schemas.read_text().split("## Scan CSV")[1].split("```")[1]
        assert lines[0] == documented.strip()
        k6 = lines[7].split(",")
        assert (k6[5], k6[6]) == ("22", "21")  # bk, u_floor at the crossover

    def test_csv_rejected_for_single_report(self, tmp_path):
        proc = run_cli(["bounds", "2", "1", "--format", "csv"], cwd=tmp_path)
        assert proc.returncode == EXIT_USAGE

    def test_json_identical_across_runs(self, tmp_path):
        a = run_cli(["bounds", "2", "10", "--format", "json"], cwd=tmp_path).stdout
        b = run_cli(["bounds", "2", "10", "--format", "json"], cwd=tmp_path).stdout
        assert a == b
        report = json.loads(a)["report"]
        assert (report["core"], report["best"]) == (30, 30)

    # U has 45 and 151 integer digits here, past the 50 significant digits
    # that fit 44 integer digits and six places
    @pytest.mark.parametrize("n, k", [("28", "396"), ("100", "1000")])
    def test_huge_instance_renders(self, tmp_path, n, k):
        human = run_cli(["bounds", n, k], cwd=tmp_path)
        assert human.returncode == EXIT_OK, human.stderr
        proc = run_cli(["bounds", n, k, "--format", "json"], cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        u = json.loads(proc.stdout)["report"]["u"]
        exact = Fraction(u["exact"])
        assert len(str(u["floor"])) > 44
        whole, places = u["decimal"].split(".")
        assert whole == str(u["floor"]) and len(places) == 6
        assert abs(Fraction(u["decimal"]) - exact) <= Fraction(1, 2 * 10**6)
        line = f"U bound: {u['exact']} (≈ {u['decimal']}), floor {u['floor']}"
        assert line in human.stdout

    def test_decimal_rounds_half_even_at_any_size(self):
        scale = 10**7
        big = 10**50

        def rendered(tenths_of_a_millionth):
            return fraction_decimal_str(Fraction(tenths_of_a_millionth, scale))

        assert fraction_decimal_str(Fraction(119, 3)) == "39.666667"
        assert rendered(big * scale + 5) == f"{big}.000000"
        assert rendered(big * scale + 15) == f"{big}.000002"
        # rounding up to one more integer digit
        assert rendered(big * scale - 5) == f"{big}.000000"
        assert rendered(-(big * scale - 5)) == f"-{big}.000000"
        # 43 integer digits; the exact remainder is 0.4856 of a unit in the
        # sixth place, so that place rounds down
        f = Fraction(
            8669627315519919332070567716069112302891091235725298584971025,
            983124136688652883,
        )
        assert fraction_decimal_str(f) == (
            "8818446208350509794736206610031070782712975.344583"
        )

    def test_decimal_matches_exact_rounding(self):
        def exact(f):
            """f rounded half-even to six places by integer division."""
            units, rest = divmod(abs(f.numerator) * 10**6, f.denominator)
            if 2 * rest > f.denominator or (2 * rest == f.denominator and units % 2):
                units += 1
            return f"{'-' if f < 0 else ''}{units // 10**6}.{units % 10**6:06d}"

        # every size of integer part up to 60 digits, the 43 and 44 digits
        # that fill 50 significant digits with six places included
        rng = random.Random(15)
        for digits in range(1, 61):
            for draw in range(100):
                if draw % 10 == 0:
                    # exact ties when the numerator is odd
                    den = 2 * 10**6
                else:
                    den = rng.randrange(1, 10 ** rng.randint(1, 20))
                num = rng.randrange(10 ** (digits - 1) * den, 10**digits * den)
                f = Fraction(rng.choice((1, -1)) * num, den)
                assert fraction_decimal_str(f) == exact(f), f


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

    def test_suite_out_of_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        # a suite's exact solves run under the default node budget
        def out_of_budget():
            raise BudgetExceeded("node budget of 5 exhausted", tested_k=4)

        monkeypatch.setitem(SUITES, "oracle", out_of_budget)
        code = main(["reproduce", "--suite", "oracle", "--out-dir", str(tmp_path)])
        assert code == EXIT_BUDGET
        assert capsys.readouterr().err == "error: node budget of 5 exhausted\n"
        assert not list(tmp_path.iterdir())


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
    pytest.param(
        ["verify", "g.col", "c.json"], {"g.col": _TWO_VERTEX_GRAPH, "c.json": "{\n"},
        "error: Expecting property name enclosed in double quotes", id="cert-not-json",
    ),
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
    # params that contradict vertex_count, also against an untagged graph
    _bad_certificate(
        "params-ground-set-too-large",
        _certificate(params={"n": 2, "k": 1}),
        "vertex_count 2 is not the vertex count of KG(5, 2) given by its params",
    ),
    _bad_certificate(
        "params-huge-binomial",
        _certificate(params={"n": 10**9, "k": 0}),
        "vertex_count 2 is not the vertex count of KG(2000000000, 1000000000)",
    ),
    pytest.param(
        ["verify", "g.col", "c.json"],
        {"g.col": "p edge 3 1\ne 1 2\n",
         "c.json": _certificate(params={"n": 2, "k": 1}, vertex_count=3,
                                colors=[0, 1, 0])},
        "error: certificate vertex_count 3 is not the vertex count of KG(5, 2)",
        id="params-against-untagged-graph",
    ),
    pytest.param(
        ["verify", "g.col", "c.json"],
        {"g.col": "p edge 5 1\ne 1 2\n",
         "c.json": _certificate(params={"n": 2, "k": 0}, vertex_count=5,
                                colors=[0, 1, 0, 0, 0])},
        "error: certificate vertex_count 5 is not the vertex count of KG(4, 2)",
        id="params-binomial-mismatch",
    ),
    _bad_graph(
        "negative-vertices", "solve", "p edge -3 0\n",
        "malformed problem line: 'p edge -3 0'",
    ),
    _bad_graph(
        "negative-edges", "solve", "p edge 2 -1\n",
        "malformed problem line: 'p edge 2 -1'",
    ),
    # a tag over the enumeration cap whose p line disagrees with it is
    # rejected on that disagreement, before the cap is reached
    _bad_graph(
        "tag-over-cap-disagrees", "solve", "c kneser n=13 k=0\np edge 1 0\n",
        "edge list does not match kneser n=13 k=0",
    ),
    _bad_graph(
        "vertices-over-cap", "solve", "p edge 10000000 0\n",
        "instance too large: 10000000 vertices exceed the enumeration cap 1000000",
    ),
    _bad_graph(
        "repeated-tag", "solve",
        "c kneser n=1 k=1\nc kneser n=1 k=0\np edge 2 1\ne 1 2\n",
        "repeated kneser tag: 'c kneser n=1 k=0'",
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
        ["solve", "g.col", "--mode", "brute", "--brute-cap", "20000"],
        {"g.col": "p edge 10010 0\n"},
        "error: instance too large: brute force is capped at 10000 vertices",
        id="solve-brute-past-vertex-cap",
    ),
    pytest.param(
        ["verify", "g.col", "c.json"],
        {"g.col": _TWO_VERTEX_GRAPH,
         "c.json": _certificate(vertex_count=3, colors=[0, 1, 2])},
        "error: certificate covers 3 vertices, graph has 2",
        id="verify-vertex-count",
    ),
    # KG(6,1) and KG(4,2) both have 6 vertices, so each certificate's params
    # agree with its vertex_count
    pytest.param(
        ["verify", "g.col", "c.json"],
        {"g.col": dimacs_dumps(build_graph(KneserParams(1, 4))),
         "c.json": _certificate(params={"n": 2, "k": 0}, vertex_count=6,
                                colors=list(range(6)))},
        "error: certificate and graph disagree on Kneser parameters",
        id="verify-params",
    ),
    pytest.param(
        ["verify", "g.col", "c.json", "--proof-structure"],
        {"g.col": _TWO_VERTEX_GRAPH, "c.json": _certificate()},
        "error: --proof-structure requires a Kneser-tagged graph",
        id="verify-untagged-proof-structure",
    ),
    pytest.param(
        ["bounds", "2", "1", "--scan", "2", "0", "3"], {},
        "error: give either n k or --scan, not both", id="bounds-both",
    ),
    pytest.param(
        ["bounds"], {}, "error: bounds requires n and k, or --scan", id="bounds-none"
    ),
    pytest.param(
        ["bounds", "2", "1", "--format", "csv"], {},
        "error: CSV output is only available for --scan tables", id="bounds-csv",
    ),
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
            # JSON output has no encoding for an infinite budget
            (["--budget-seconds", "inf"], {}, "--budget-seconds must be finite"),
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

    def test_python_api_block_runs(self):
        # the fenced block under "## Python API", executed as written
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Python API", 1)[1].split("```")[1]
        assert block.startswith("python\n")
        exec(compile(block.removeprefix("python\n"), "README.md", "exec"), {})
