import hashlib
import json
import math
import random
import time

import pytest

from lpatrace import cli, graphs
from lpatrace.cli import main

from conftest import (
    GRAPH_TEXTS,
    cayley_text,
    double_edge_chain_text,
    fresh_rng,
    small_graphs,
    small_tables_with_zero,
    two_cycle_chain_text,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_one_loop(tmp_path, capsys):
    path = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert result["no_exit"] and result["tame"]
    assert result["faithful_trace_exists"]["Q,identity"]
    assert result["vertex_trace_space_dim"] == 1
    assert result["cycles"] == ["e"]
    assert report["inputs"]["graph"]["sha256"]


def test_analyze_rose_and_line(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    code, out, _ = _run(capsys, "analyze", rose)
    result = json.loads(out)["result"]
    assert code == 0
    assert not result["no_exit"]
    assert result["vertex_trace_space_dim"] == 0

    line = _write(tmp_path, "line.graph", GRAPH_TEXTS["line2"])
    code, out, _ = _run(capsys, "analyze", line)
    result = json.loads(out)["result"]
    assert result["tame"] and result["sinks"] == ["b"]


def test_reports_are_byte_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "mixed.graph", GRAPH_TEXTS["mixed"])
    _, out1, _ = _run(capsys, "analyze", path)
    _, out2, _ = _run(capsys, "analyze", path)
    assert out1 == out2
    _, out3, _ = _run(capsys, "decompose", path)
    _, out4, _ = _run(capsys, "decompose", path)
    assert out3 == out4


def test_eval_one_loop_example(tmp_path, capsys):
    graph = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    spec = _write(
        tmp_path, "loop.spec",
        "field Qi\ninvolution conjugation\nvertex v 1\ncycle e 1i 1i\n",
    )
    # e.e' is v by the Cuntz-Krieger relation at v; spaces between tokens
    # do not change the value
    cases = {"v + e + e' + v": "2+2i", "3/4*e.e'": "3/4", " 3/4 * e . e ' ": "3/4"}
    for expr, value in cases.items():
        code, out, _ = _run(capsys, "eval", graph, expr, "--spec", spec, "--mode", "leavitt")
        assert code == 0 and json.loads(out)["result"]["value"] == value, expr


def test_eval_expression_with_a_leading_minus(tmp_path, capsys):
    """argparse reads `-e` as an option, so the expression is missing and
    `lpa` exits 2 with nothing on stdout; after `--` it is the expression."""
    graph = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    spec = _write(tmp_path, "loop.spec", "field Q\nvertex v 0\ncycle e 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["eval", graph, "-e", "--spec", spec])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "the following arguments are required: expr" in err
    assert "Traceback" not in err
    code, out, _ = _run(capsys, "eval", graph, "--spec", spec, "--", "-e")
    assert code == 0 and json.loads(out)["result"]["value"] == "-1"


def test_eval_commutator_is_zero(tmp_path, capsys):
    graph = _write(tmp_path, "line.graph", GRAPH_TEXTS["line2"])
    spec = _write(tmp_path, "line.spec", "field Q\nvertex a 1\nvertex b 1\n")
    code, out, _ = _run(
        capsys, "eval", graph, "f.b' - b.f'", "--spec", spec,
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == "0"


def test_eval_faithful_line_spec(tmp_path, capsys):
    graph = _write(tmp_path, "line.graph", GRAPH_TEXTS["line2"])
    spec = _write(tmp_path, "line.spec", "field Q\nvertex a 1\nvertex b 1\n")
    code, out, _ = _run(capsys, "eval", graph, "a", "--spec", spec)
    assert code == 0 and json.loads(out)["result"]["value"] == "1"


def test_eval_rejects_invalid_spec_with_vertex_named(tmp_path, capsys):
    graph = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    spec = _write(tmp_path, "rose.spec", "field Q\nvertex v 1\n")
    code, _, err = _run(capsys, "eval", graph, "v", "--spec", spec)
    assert code == 3
    assert "'v'" in err


def test_decompose_reports(tmp_path, capsys):
    line = _write(tmp_path, "line.graph", GRAPH_TEXTS["line2"])
    code, out, _ = _run(capsys, "decompose", line)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sink_blocks"][0]["size"] == 2

    loop = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    code, out, _ = _run(capsys, "decompose", loop)
    result = json.loads(out)["result"]
    assert result["cycle_blocks"][0]["size"] == 1

    rose = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    code, _, err = _run(capsys, "decompose", rose)
    assert code == 3 and "exit" in err


def test_classes_command(tmp_path, capsys):
    loop = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    code, out, _ = _run(capsys, "classes", loop, "--max-len", "2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["vertex_classes"] == ["v"]
    assert result["cycle_classes"] == ["e", "e/e"]
    assert result["cycle_star_classes"] == ["e", "e/e"]

    line = _write(tmp_path, "line.graph", GRAPH_TEXTS["line3"])
    code, out, _ = _run(capsys, "classes", line, "--max-len", "3")
    result = json.loads(out)["result"]
    assert result["cycle_classes"] == []

    two = _write(tmp_path, "two.graph", GRAPH_TEXTS["two_cycle"])
    code, out, _ = _run(capsys, "classes", two, "--max-len", "2")
    result = json.loads(out)["result"]
    assert result["cycle_classes"] == ["e1/e2"]  # one rotation class


def test_classes_within_enumeration_limit(tmp_path, capsys):
    # 4.46 million edge ids of prefix words, under the 10**7 limit
    rose = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    code, out, _ = _run(capsys, "classes", rose, "--max-len", "20")
    assert code == 0
    # binary necklaces of length n: (1/n) * sum over i < n of 2**gcd(i, n)
    count = sum(
        sum(2 ** math.gcd(i, n) for i in range(n)) // n for n in range(1, 21)
    )
    assert len(json.loads(out)["result"]["cycle_classes"]) == count


def test_classes_past_enumeration_limit_exits_3(tmp_path, capsys):
    # rose2 at length 22 would need 17.7 million edge ids
    rose = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    start = time.perf_counter()
    code, out, err = _run(capsys, "classes", rose, "--max-len", "22")
    assert time.perf_counter() - start < 3
    assert code == 3 and out == "" and "--max-len" in err
    # one loop: a single prefix per length, but it passes 10**7 edge ids
    # near length 4472, long before 100000 prefixes could exhaust memory
    loop = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    code, out, err = _run(capsys, "classes", loop, "--max-len", "100000")
    assert code == 3 and out == "" and "--max-len" in err


def _complete_digraph_text(n):
    lines = [f"v a{i}" for i in range(n)]
    lines += [f"e e{i}_{j} a{i} a{j}" for i in range(n) for j in range(n) if i != j]
    return "\n".join(lines)


def test_analyze_within_cycle_limit(tmp_path, capsys):
    # K8's simple cycles hold 109,592 edge ids, under the limit
    path = _write(tmp_path, "K8.graph", _complete_digraph_text(8))
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    # one cycle per cyclic order of each vertex subset of size >= 2
    count = sum(math.comb(8, k) * math.factorial(k - 1) for k in range(2, 9))
    assert len(json.loads(out)["result"]["cycles"]) == count


def test_analyze_past_cycle_limit_exits_3(tmp_path, capsys):
    # K10's simple cycles would hold millions of edge ids
    path = _write(tmp_path, "K10.graph", _complete_digraph_text(10))
    start = time.perf_counter()
    code, out, err = _run(capsys, "analyze", path)
    assert time.perf_counter() - start < 3
    assert code == 3 and out == ""
    assert "10 vertices and 90 edges" in err


def test_long_cycle_is_not_cut_by_cycle_limit(tmp_path, capsys):
    # one no-exit cycle of 200 vertices, declared in cycle order
    n = 200
    lines = [f"v a{i}" for i in range(n)]
    lines += [f"e e{i} a{i} a{(i + 1) % n}" for i in range(n)]
    path = _write(tmp_path, "ring.graph", "\n".join(lines))
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["cycles"] == ["/".join(f"e{i}" for i in range(n))]
    code, out, _ = _run(capsys, "decompose", path)
    assert code == 0
    (block,) = json.loads(out)["result"]["cycle_blocks"]
    assert block["size"] == n


def test_analyze_long_cycle_solves_sparse_vertex_constraints(tmp_path, capsys):
    # 2000 constraints of two entries each: a dense system would hold 4 * 10^6
    n = 2000
    lines = [f"v a{i}" for i in range(n)]
    lines += [f"e e{i} a{i} a{(i + 1) % n}" for i in range(n)]
    path = _write(tmp_path, "ring.graph", "\n".join(lines))
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0
    assert json.loads(out)["result"]["vertex_trace_space_dim"] == 1


def test_decompose_within_path_limit(tmp_path, capsys):
    path = _write(tmp_path, "chain12.graph", double_edge_chain_text(12))
    code, out, _ = _run(capsys, "decompose", path)
    assert code == 0
    (block,) = json.loads(out)["result"]["sink_blocks"]
    assert block["sink"] == "a12" and block["size"] == 2 ** 13 - 1


def test_decompose_past_path_limit_exits_3(tmp_path, capsys):
    # 1,966,082 edge ids of basis paths, past the 10**6 limit
    path = _write(tmp_path, "chain16.graph", double_edge_chain_text(16))
    start = time.perf_counter()
    code, out, err = _run(capsys, "decompose", path)
    assert time.perf_counter() - start < 3
    assert code == 3 and out == ""
    assert "'a16'" in err and "17 vertices and 32 edges" in err


def test_decompose_past_limit_of_all_blocks_exits_3(tmp_path, capsys):
    # the end of a chain of 14 double edges fans out to 3 sinks: each sink
    # block holds 458,753 edge ids, inside the limit, and the three together
    # hold 1,376,259, past it
    lines = [double_edge_chain_text(14)]
    lines += [f"v s{i}\ne x{i} a14 s{i}" for i in range(3)]
    path = _write(tmp_path, "fan3.graph", "\n".join(lines))
    start = time.perf_counter()
    code, out, err = _run(capsys, "decompose", path)
    assert time.perf_counter() - start < 3
    assert code == 3 and out == ""
    assert "basis paths of a graph with 18 vertices and 31 edges" in err


def test_sg_commands(tmp_path, capsys):
    def right_zero(n):  # x*y = y on the nonzero elements
        return cayley_text([[0] * n] + [list(range(n))] * (n - 1))

    texts = {
        "c2": "n 3 zero 0\n0 0 0\n0 1 2\n0 2 1\nlabel 1 e\nlabel 2 g\n",
        "mu2": cayley_text(
            [[0, 0, 0, 0, 0], [0, 1, 2, 0, 0], [0, 0, 0, 1, 2], [0, 3, 4, 0, 0], [0, 0, 0, 3, 4]]),
        "null257": cayley_text([[0] * 257] * 257),
        "right_zero256": right_zero(256),  # a packed bytes table
        "right_zero257": right_zero(257),  # tuple rows and columns
    }
    # (table, action, items of the result)
    cases = [
        ("c2", "classes", {"classes": [["0"], ["e"], ["g"]], "nonzero_class_count": 2}),
        ("c2", "minimal", {"is_minimal": True, "delta": {"0": None, "e": 1, "g": 2}}),
        ("c2", "normalized", {"admits_normalized_minimal": False}),
        ("mu2", "classes", {"classes": [["0", "2", "3"], ["1", "4"]]}),
        ("mu2", "minimal", {"is_minimal": True}),
        ("mu2", "normalized", {"admits_normalized_minimal": True}),
        ("null257", "classes", {"nonzero_class_count": 256}),
    ]
    for n in (256, 257):
        one_class = [["0"], [str(i) for i in range(1, n)]]
        cases += [
            (f"right_zero{n}", "classes", {"classes": one_class, "nonzero_class_count": 1}),
            (f"right_zero{n}", "minimal", {"classes": one_class, "is_minimal": True}),
        ]
    paths = {name: _write(tmp_path, f"{name}.cayley", text) for name, text in texts.items()}
    for name, action, items in cases:
        code, out, _ = _run(capsys, "sg", paths[name], action)
        result = json.loads(out)["result"]
        assert code == 0 and {k: result[k] for k in items} == items, (name, action)


def test_input_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.graph", "e f a b\n")
    code, _, err = _run(capsys, "analyze", bad)
    assert code == 2 and "line 1" in err
    # unreadable files keep their texts; a trailing slash after a file is
    # "Not a directory", as for open(), not the file itself
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"v v\ne e v v\xff\n")
    loop = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    unreadable = {
        str(tmp_path / "missing.graph"): "No such file or directory",
        str(tmp_path): "Is a directory",
        str(binary): "not UTF-8 text",
        loop + "/": "Not a directory",
    }
    for path, reason in unreadable.items():
        code, out, err = _run(capsys, "analyze", path)
        assert (code, out) == (2, "")
        assert err == f"input error: cannot read {path}: {reason}\n"
    graph = _write(tmp_path, "line.graph", GRAPH_TEXTS["line2"])
    spec = _write(tmp_path, "line.spec", "field Q\nvertex a 1\nvertex b 1\n")
    code, _, err = _run(capsys, "eval", graph, "a +", "--spec", spec)
    assert code == 2


def test_bad_values_files_and_labels_exit_2(tmp_path, capsys):
    rose = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    plain = _write(tmp_path, "plain.spec", "vertex v 0\n")
    cayley = "n 2 zero 0\n0 0\n0 1\n"
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"v v\ne e v v\xff\n")
    # name: (a part of stderr, argv)
    cases = {
        "conflicting cycle": ("line 2: conflicting values", (
            "eval", rose, "e/f", "--mode", "cohn", "--spec",
            _write(tmp_path, "c.spec", "cycle e/f 1\ncycle f/e 2\n"))),
        "conflicting star": ("line 2: conflicting values", (
            "eval", rose, "e/f", "--mode", "cohn", "--spec",
            _write(tmp_path, "s.spec", "cycle e/f 1 1\ncycle f/e 1 2\n"))),
        "conflicting vertex": ("line 2: conflicting values", (
            "eval", rose, "v", "--mode", "cohn", "--spec",
            _write(tmp_path, "v.spec", "vertex v 1\nvertex v 2\n"))),
        "zero denominator in expression": ("zero denominator", (
            "eval", rose, "1/0", "--spec", plain)),
        "zero denominator in spec": ("zero denominator", (
            "eval", rose, "v", "--spec", _write(tmp_path, "z.spec", "vertex v 1/0\n"))),
        "two ids with no sign between": ("expected + or - before 'e'", (
            "eval", rose, "e e", "--spec", plain)),
        "imaginary scalar over Q": ("imaginary scalar '1-2i' not allowed over Q", (
            "eval", rose, "1-2i*v", "--spec", plain)),
        "edge before its vertices": ("line 1: undeclared vertex 'a'", (
            "analyze", _write(tmp_path, "forward.graph", "e f a b\nv a\nv b\n"))),
        "vertex declared twice": ("line 2: duplicate id 'a'", (
            "analyze", _write(tmp_path, "twice.graph", "v a\nv a\n"))),
        "non-UTF-8 file": ("not UTF-8 text", ("analyze", str(binary))),
        "label out of range": ("line 4: label index 5 out of range", (
            "sg", _write(tmp_path, "r.cayley", cayley + "label 5 x\n"), "classes")),
        "label given twice": ("line 5", (
            "sg", _write(tmp_path, "d.cayley", cayley + "label 1 x\nlabel 1 y\n"), "classes")),
    }
    for name, (text, argv) in cases.items():
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", name
        assert err.startswith("input error:") and text in err, name
        assert "Traceback" not in err, name
    # repeating a value is not a conflict
    same = _write(tmp_path, "same.spec",
                  "cycle e/f 1 2\ncycle f/e 1 2\nvertex v 0\nvertex v 0\n")
    code, out, _ = _run(capsys, "eval", rose, "e/f", "--mode", "cohn", "--spec", same)
    assert code == 0 and json.loads(out)["result"]["value"] == "1"


def test_eval_reads_both_files_before_parsing_either(tmp_path, capsys):
    graph = _write(tmp_path, "bad.graph", "e f a b\n")
    spec = str(tmp_path / "missing.spec")
    code, out, err = _run(capsys, "eval", graph, "v", "--spec", spec)
    assert (code, out) == (2, "")
    assert err == f"input error: cannot read {spec}: No such file or directory\n"


def test_eval_input_error_takes_precedence_over_invalid_spec(tmp_path, capsys):
    graph = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    spec = _write(tmp_path, "rose.spec", "field Q\nvertex v 1\n")
    code, _, err = _run(capsys, "eval", graph, "v +", "--spec", spec)
    assert code == 2 and err.startswith("input error:")
    code, _, err = _run(capsys, "eval", graph, "v", "--spec", spec)
    assert code == 3
    assert "spec does not satisfy the vertex constraint: vertex 'v'" in err


def test_eval_long_redex_does_not_exhaust_recursion(tmp_path, capsys):
    # P.P' with P = e/.../e (1200 edges) rewrites once per stripped edge
    graph = _write(tmp_path, "rose.graph", GRAPH_TEXTS["rose2"])
    spec = _write(tmp_path, "rose.spec", "field Q\nvertex v 0\n")
    p = "/".join(["e"] * 1200)
    code, out, _ = _run(capsys, "eval", graph, f"{p}.{p}'", "--spec", spec)
    assert code == 0
    assert json.loads(out)["result"]["value"] == "0"


def test_non_ascii_digits_and_long_integers_exit_2(tmp_path, capsys):
    graph = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    spec = _write(tmp_path, "loop.spec", "vertex v 1\n")
    long = "1" * 5000
    cases = {
        "superscript digit": ("²", spec),
        "Arabic-Indic digit": ("٣*v", spec),
        "long integer in expression": (f"{long}*v", spec),
        "long denominator in expression": (f"1/{long}*v", spec),
        "long integer in spec": ("v", _write(tmp_path, "s.spec", f"vertex v {long}\n")),
        "long denominator in spec": ("v", _write(tmp_path, "d.spec", f"vertex v 1/{long}\n")),
    }
    for name, (expr, spec_path) in cases.items():
        code, out, err = _run(capsys, "eval", graph, expr, "--spec", spec_path)
        assert code == 2 and out == "", name
        assert err.startswith("input error:") and "Traceback" not in err, name
        if "long" in name:
            assert "characters) has an integer of more than 4300 digits" in err, name
    # 4300 digits still convert, in and out
    code, out, _ = _run(capsys, "eval", graph, "1" * 4300 + "*v", "--spec", spec)
    assert code == 0 and json.loads(out)["result"]["value"] == "1" * 4300


def test_each_command_runs_at_most_one_scc_pass(tmp_path, capsys, scc_passes):
    k7 = [f"a{i}" for i in range(7)]
    texts = {
        "K7": "\n".join([f"v {v}" for v in k7] + [
            f"e {v}_{w} {v} {w}" for v in k7 for w in k7 if v != w]),
        "mixed": GRAPH_TEXTS["mixed"],
        "tail_loop": GRAPH_TEXTS["tail_loop"],
    }
    spec = _write(tmp_path, "empty.spec", "")
    # eval reads no structure of the graph; the others read it once
    for name, text in texts.items():
        graph = _write(tmp_path, f"{name}.graph", text)
        first = text.split()[1]
        for want, argv in (
            (1, ["analyze", graph]),
            (1, ["classes", graph, "--max-len", "3"]),
            (0, ["eval", graph, first, "--spec", spec]),
            (1, ["decompose", graph]),
        ):
            scc_passes.clear()
            code, _, _ = _run(capsys, *argv)
            assert code in (0, 3) and len(scc_passes) == want, (name, argv[0])


def test_analyze_lists_a_chain_of_1000_two_cycles(tmp_path, capsys):
    # one strongly connected component; with either edge of a link sorting
    # first, every cycle is a link
    for forward, back in ("fb", "bf"):
        path = _write(tmp_path, "chain.graph", two_cycle_chain_text(1000, forward, back))
        code, out, _ = _run(capsys, "analyze", path)
        cycles = json.loads(out)["result"]["cycles"]
        assert code == 0 and len(cycles) == 1000, forward
        assert all(c.count("/") == 1 for c in cycles), forward


def test_analyze_and_decompose_search_for_an_exit_witness_once(
    tmp_path, capsys, exit_searches
):
    # `analyze` asks three times (no-exit, and a faithful trace over Q and
    # over Qi), `decompose` once; the graph keeps the answer
    for name in ("loop_exit", "mixed", "rose2", "two_cycle"):
        path = _write(tmp_path, f"{name}.graph", GRAPH_TEXTS[name])
        for command in ("analyze", "decompose"):
            exit_searches.clear()
            code, _, _ = _run(capsys, command, path)
            assert code in (0, 3) and len(exit_searches) == 1, (name, command)


def test_single_cycle_sccs_are_outside_the_cycle_limit(tmp_path, capsys, monkeypatch):
    # the limit bounds Johnson's search; 11 disjoint loops never reach it,
    # so `analyze` and `decompose` agree above it
    monkeypatch.setattr(graphs, "CYCLE_WORK_LIMIT", 10)
    path = _write(tmp_path, "loops.graph", "".join(
        f"v x{i}\ne l{i} x{i} x{i}\n" for i in range(11)
    ))
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0 and len(json.loads(out)["result"]["cycles"]) == 11
    code, out, _ = _run(capsys, "decompose", path)
    assert code == 0 and len(json.loads(out)["result"]["cycle_blocks"]) == 11


def test_main_builds_the_parser_once(tmp_path, capsys):
    cli.build_parser.cache_clear()
    path = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    for argv in (["analyze", path], ["classes", path], ["decompose", path]) * 2:
        assert _run(capsys, *argv)[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_main_runs_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "loop.graph", GRAPH_TEXTS["one_loop"])
    assert _run(capsys, "analyze", path)[0] == 0  # the parser exists now
    seen = []

    def stand_in(args):
        seen.append(args.graph)
        return {}, {}

    monkeypatch.setattr(cli, "cmd_analyze", stand_in)
    code, out, _ = _run(capsys, "analyze", path)
    assert code == 0 and seen == [path]
    assert json.loads(out) == {
        "command": "analyze", "inputs": {}, "result": {}, "diagnostics": [],
    }


# Valid Leavitt specs for every corpus graph; in Cohn mode any spec is valid.
GOLDEN_SPECS = {
    "line2": "field Q\nvertex a 1\nvertex b 1\n",
    "line3": "field Q\nvertex a 1\nvertex b 1\nvertex c 1\n",
    "tree": "field Q\nvertex a 2\nvertex b 1\nvertex c 1\n",
    "one_loop": "field Qi\ninvolution conjugation\nvertex v 1\ncycle e 1i 1i\n",
    "two_cycle": "field Q\nvertex u 1\nvertex w 1\ncycle e2/e1 2 -1/3\n",
    "rose2": "field Q\nvertex v 0\ncycle e/f 1\ncycle e 5 7\n",
    "tail_loop": "field Q\nvertex a 1\nvertex v 1\ncycle e 3\n",
    "loop_exit": "field Q\nvertex v 1\nvertex b 0\ncycle e 2 2\n",
    "disjoint": "field Q\nvertex a 1\nvertex b 1\nvertex v 3\ncycle e/e 1/2\n",
    "mixed": "field Q\nvertex a 2\nvertex b 1\nvertex c 1\nvertex u 1\nvertex w 1\n",
}

# sha256 of each report's `result` (JSON, sorted keys), or the exit code
# when the command fails.
GOLDEN = {
    "analyze line2": "570157d033100a725c0969663e25c3da91aca93403f45fc1a5b0d2d92a3ad2cd",
    "classes line2": "c4abfd466287d15ceef5f99b5f7a736f38283acae84027685ed8d349beffa8b4",
    "decompose line2": "b7d0de955ff1ddee86b4de2bac0d1e57730a293211c2a580e9f914ac26415045",
    "eval leavitt line2": "4bfcb9ba6285d8bc877d4c70d40272f0c088b7d97f57ba08b5077f881c0a4b98",
    "eval cohn line2": "d0c04f84b96b984f4bf303ffd656c4c82a05acc00d49deecdf65420d1a11eec9",
    "analyze line3": "6e33a0fdfd893d1d5cbc2bf3a353fbc3d175d0015e5793da1e1e9a59eeafc952",
    "classes line3": "a9ead134404b7b019a088a2b3e5a591b301b7b815a56732e34414a34c77a02e9",
    "decompose line3": "6990ec34b25f6b43f0cb0c3321aa3264b3fea64e2d95cd426c11ab0fbdc887a2",
    "eval leavitt line3": "3fc32e84a6ad505364c072f89d9766f0a3e5847b7ed3280cbbf03fc0c21ec45b",
    "eval cohn line3": "509a076f9d42c33b906e6e47e405ae64f77114ceaca38d6fc098c5ca57c3fad8",
    "analyze tree": "c8c6d70c051498bae9fcf3ef020d78b0284efab32547cb8ca424b867b1c75a15",
    "classes tree": "a9ead134404b7b019a088a2b3e5a591b301b7b815a56732e34414a34c77a02e9",
    "decompose tree": "05556fd4fdb69d1633627ae22bc2bff03676780d9f9c0fb06f89435d45044955",
    "eval leavitt tree": "e5b82ae313c83de4a71692c0b3afefb9463b78c848484b067619f99120193672",
    "eval cohn tree": "a804976aefa67021ff5a2997a096728c211f8a8cdbbd55df6a4a1080c7906696",
    "analyze one_loop": "eeddf02d6253e61a4b25fc6d6d9096fc69e21d9eea82c21fc55f7ff08fa2f966",
    "classes one_loop": "d331d3dc532d9d26d7ab5a79db5cdd9cc88109eb7db1b20b5f8e22010b92a9f9",
    "decompose one_loop": "296d1242a24108fd065fcefd9fff99dfcc9607e123161fce598072a212bd1510",
    "eval leavitt one_loop": "9c400ca550a8e80322ef4a3e3f31d3b3df2b89522abecc767f52e3959ca2c696",
    "eval cohn one_loop": "c88a59e50e318584fac8cddc37cde13205b181af16c9230caa50a93f67399de5",
    "analyze two_cycle": "0ebc8612fb64e64c99ee9df1658b1da04a416dbc2e12e5fde01325413ce76c5e",
    "classes two_cycle": "9c010fb0e446caa0d30377dfac8f861895315fb415facb4e30de326e9543c016",
    "decompose two_cycle": "641a1fd4e4889d84326087cf098420347e044c321c1717c7c951f0adfd9dffe4",
    "eval leavitt two_cycle": "c60643b89077648a861965ce9a3cf50fc6943eb0bf9b86a5f9bf274117ef9d6f",
    "eval cohn two_cycle": "9e873cccdb2fa663d25de226dbbe4f5ec86a4ef45a4fe70f1bcf3f86231f572f",
    "analyze rose2": "8134a198971d9a5f7835590400eef867cb53a06838ac19c759bac772f05f5e19",
    "classes rose2": "57b7ce4f70d26299ab8a89ea025ba4895413ee416fb61c75f51283ad8e0171b3",
    "decompose rose2": 3,
    "eval leavitt rose2": "bcdf3643e4a03d400ca264fbe140b3c5c93663afcb9374991d51b560d637feb9",
    "eval cohn rose2": "23ffc4f9050abae7454951d9bdfaf51b6d218565de56546d042559cbc17f85cb",
    "analyze tail_loop": "fe29f1decdc83ccd33ce63c2d5b648b93c965772eae8f0acc70294408507611f",
    "classes tail_loop": "0f57d70277f8f44d8969555134a1074b4fbb934b3a7605ae14b0bea134f5483e",
    "decompose tail_loop": "887eee6d346626ae61eb71319fb6036fbc438c423181402f32631ea3200a4d17",
    "eval leavitt tail_loop": "dee1b354bf3c6204de1cb5dad880e9012517c88d54bf0bc2875c0cb9d81ae1e3",
    "eval cohn tail_loop": "15b1a0cee49ed2390b29bd3d858209afe079459c95605899b8775ba12ad51b92",
    "analyze loop_exit": "5ed55c8d4a476b5ed7861ac22bc17c5a434243c7355d447663260e426b9cc758",
    "classes loop_exit": "708017b0fc8d0b478b5ad774d0fca8992fc579cf00bd6b2ccd6c1fc83003a2b7",
    "decompose loop_exit": 3,
    "eval leavitt loop_exit": "7498cbd92293276bde4568162d24b68e167e904dea2024fa73b6036c5e42c2e6",
    "eval cohn loop_exit": "fbaf57bcac523d55759e5d9058d1260a1dfcc951db1d15a344cd80ec17754e84",
    "analyze disjoint": "e71ff34138db77953e3aaa751924f53cd1f0369e528d386f2d39b046d9315c0a",
    "classes disjoint": "87a4c6caee31d4368a7bdbedc8bf28be434e74c94fd7191188220effae511511",
    "decompose disjoint": "038bf7cb97e645c1f9721eb2b9df650a775d71216301f0edf2aad4b2949575ce",
    "eval leavitt disjoint": "1851d5cd01856bd807bd5574376664bd2762351065525301ff4ba6358413f2d6",
    "eval cohn disjoint": "99064108e06a5d8ea752a8501b059fe321697e7cce1b191c5fc3f65d74c93d58",
    "analyze mixed": "29d44d3d78467f6e2ba6dce952888595f233b8c26212176fbe389dc06444c404",
    "classes mixed": "85e51d334767a332b0fd5ed686da766dcd89674466cdd7104b4240c21a437b68",
    "decompose mixed": "eac1bbf640e359f33a4ee00be0593bd7eefb760dcfd065dfb8298b2a72ad6a92",
    "eval leavitt mixed": "96b24cc64e4de92e82a42575b3acb81006b312f1f3a1ae5bb8bcdeb3d9ed6904",
    "eval cohn mixed": "cc18d3ee12e2fddf799add6c1103fbe443adde137d33cae72b7dd41a26ece40f",
    "sg classes": "395e68ff2dd729e82cfae91b4d7137214ad64cbe07ef60e8145b9e4f800154cf",
    "sg minimal": "6407aa008be6ce8b34796ef8356fccb357fe8342c241f7dd99e4d5d5344abb61",
    "sg normalized": "c8b5bbec620894dc0a9c2119eb70fa50f8874e90c17f40121c6c1c237ad3c8d2",
}


def _golden_expr(graph_text):
    terms = []
    for line in graph_text.splitlines():
        kind, name = line.split()[:2]
        if kind == "v":
            terms.append(f"2*{name}")
        else:
            terms += [name, f"1/2*{name}'", f"{name}.{name}'"]
    return " + ".join(terms)


def _golden_cases(tmp_path):
    for name, text in GRAPH_TEXTS.items():
        graph = _write(tmp_path, f"{name}.graph", text)
        spec = _write(tmp_path, f"{name}.spec", GOLDEN_SPECS[name])
        yield f"analyze {name}", ["analyze", graph]
        yield f"classes {name}", ["classes", graph, "--max-len", "4"]
        yield f"decompose {name}", ["decompose", graph]
        for mode in ("leavitt", "cohn"):
            yield f"eval {mode} {name}", [
                "eval", graph, _golden_expr(text), "--spec", spec, "--mode", mode,
            ]
    cayley = _write(
        tmp_path, "c2.cayley",
        "n 3 zero 0\n0 0 0\n0 1 2\n0 2 1\nlabel 1 e\nlabel 2 g\n",
    )
    for action in ("classes", "minimal", "normalized"):
        yield f"sg {action}", ["sg", cayley, action]


def test_report_results_match_golden_digests(tmp_path, capsys):
    seen = {}
    for key, argv in _golden_cases(tmp_path):
        code, out, _ = _run(capsys, *argv)
        if code == 0:
            result = json.dumps(json.loads(out)["result"], sort_keys=True)
            seen[key] = hashlib.sha256(result.encode()).hexdigest()
        else:
            seen[key] = code
    assert seen == GOLDEN


def _dict_keys(value):
    """Every key of every dict inside a JSON-like value, walked with a stack."""
    keys = []
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            keys += value
            stack += value.values()
        elif isinstance(value, (list, tuple)):
            stack += value
    return keys


def test_report_bytes_are_json_dumps_with_indent_2_and_sorted_keys(
    tmp_path, capsys, monkeypatch
):
    # the layout is part of the output contract, not only the parsed result
    reports = []
    write = cli._print
    monkeypatch.setattr(cli, "_print", lambda report: (reports.append(report), write(report)))
    cases = list(_golden_cases(tmp_path))
    cases.append(("analyze K5", ["analyze", _write(tmp_path, "K5.graph", _complete_digraph_text(5))]))
    printed = 0
    for key, argv in cases:
        code, out, _ = _run(capsys, *argv)
        if code != 0:
            assert out == "", key
            continue
        printed += 1
        report = json.loads(out)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n", key
        assert sorted(report) == ["command", "diagnostics", "inputs", "result"], key
        assert report["diagnostics"] == [], key
        assert all(type(k) is str for k in _dict_keys(reports[-1])), key
    assert printed == len(reports) == len(cases) - 2  # two decompose cases exit 3
    assert len(json.loads(out)["result"]["cycles"]) == 84  # K5's simple cycles


_STRINGS = ["", "a", "é", "日本", '"', "\\", "\n\t", "\x00", "a/b", "\U0001f600", "z" * 30]


def _random_json(rng, steps=12):
    """A random JSON-like value, built bottom-up from a pool: nested and
    empty containers, tuples, the three constants, 40-digit integers and
    strings that need escapes, at most 4 containers deep."""
    pool = [(v, 0) for v in (None, True, False, 0, -7, "", [], {}, ())]
    for _ in range(steps):
        kind = rng.randrange(6)
        if kind == 0:
            pool.append((rng.randint(-10**40, 10**40), 0))
        elif kind == 1:
            pool.append((rng.choice(_STRINGS) + str(rng.randrange(3)), 0))
        else:
            shallow = [item for item in pool if item[1] < 4]
            picked = [rng.choice(shallow) for _ in range(rng.randrange(5))]
            depth = 1 + max((d for _, d in picked), default=0)
            values = [v for v, _ in picked]
            if kind == 2:
                value = values
            elif kind == 3:
                value = tuple(values)
            else:
                value = {rng.choice(_STRINGS) + str(i): v for i, v in enumerate(values)}
            pool.append((value, depth))
    return pool[-1][0]


def test_report_writer_matches_json_dumps_on_random_values(capsys):
    rng = fresh_rng(83)
    values = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[]], [{}]],
        [[1, 2], [3]], [{"b": 1, "a": [None, True, False]}], (), ((),),
        {"k": 10**40, "j": -(10**40)}, _STRINGS + ["\u2028", "\x7f"],
        None, True, 0, "text",
    ]
    values += [_random_json(rng) for _ in range(400)]
    values += [{"result": _random_json(rng, 6), "diagnostics": []} for _ in range(100)]
    for value in values:
        cli._print(value)
        assert capsys.readouterr().out == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_report_writer_encodes_a_shared_flat_list_once_per_depth(capsys, monkeypatch):
    """`lpa classes` puts one list under two keys; the writer encodes it
    once at each depth it meets it, and prints it at each place."""
    encoded = []
    encoder = cli._encoder

    def counted(depth):
        encode = encoder(depth)
        return lambda value: (encoded.append(value), encode(value))[1]

    monkeypatch.setattr(cli, "_encoder", counted)
    shared = ["e/f", "e", 10**40]
    report = {"a": shared, "b": shared, "c": {"d": shared, "e": shared},
              "f": [shared, shared]}
    cli._print(report)
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    # a and b one level in, c's values and f's items two
    assert sum(value is shared for value in encoded) == 2


# ---------------------------------------------------------------------------
# The error contract of graph and spec files, over seeded faulty texts
# ---------------------------------------------------------------------------

_VERTEX_IDS = ("a", "b", "c", "u", "w")
_EDGE_IDS = ("e", "f", "g", "h", "k")
_ODD_IDS = ("1a", "a-b", "é", "a.b", "٣", "_", "A_1", "z")

# closed edge words of the corpus graphs, one per rotation class
_CLOSED_WORDS = {
    "one_loop": ("e", "e/e"),
    "two_cycle": ("e1/e2", "e1/e2/e1/e2"),
    "rose2": ("e", "f", "e/f", "e/e/f"),
    "tail_loop": ("e", "e/e"),
    "loop_exit": ("e",),
    "disjoint": ("e",),
    "mixed": ("e1/e2",),
}
_SPEC_SCALARS = ("0", "0", "1", "1", "2", "-1/3", "1/2", "1i", "2-3i")


def _spec_scalar(rng):
    return rng.choice(("1/0", "x", "٣")) if rng.random() < 0.03 else rng.choice(_SPEC_SCALARS)


def _faulty_graph_text(rng):
    """A graph of 1-3 vertices and 0-4 edges with 0-2 faults: an odd id, an
    id declared twice, a line moved before the vertices it names, a wrong
    number of words, or an unknown declaration."""
    vertices = rng.sample(_VERTEX_IDS, rng.randint(1, 3))
    lines = [["v", v] for v in vertices]
    for eid in rng.sample(_EDGE_IDS, rng.randint(0, 4)):
        lines.append(["e", eid, rng.choice(vertices), rng.choice(vertices)])
    for _ in range(rng.choice((0, 1, 1, 2, 2))):
        fault = rng.randrange(5)
        line = rng.choice(lines)
        if fault == 0:
            line[rng.randrange(1, len(line))] = rng.choice(_ODD_IDS)
        elif fault == 1:
            twin = ["v", line[1]] if rng.random() < 0.5 else ["e", line[1], vertices[0], vertices[0]]
            lines.insert(rng.randint(0, len(lines)), twin)
        elif fault == 2:
            lines.insert(0, lines.pop(rng.randrange(len(lines))))
        elif fault == 3:
            if len(line) > 2 and rng.random() < 0.5:
                line.pop()
            else:
                line.append(rng.choice(vertices))
        else:
            line[0] = rng.choice(("x", "V", "vertex", "edge"))
    text = [" ".join(line) for line in lines]
    if rng.random() < 0.2:
        text.insert(rng.randint(0, len(text)), rng.choice(("", "# note", "  ")))
    return "\n".join(text) + rng.choice(("", "\n"))


def _rotated(rng, word):
    word = word.split("/")
    k = rng.randrange(len(word))
    return "/".join(word[k:] + word[:k])


def _spec_word(rng, name, edges):
    """A rotation of a closed word of the graph, or 1-3 edge ids that may not
    compose, close up or exist."""
    closed = _CLOSED_WORDS.get(name)
    if closed and rng.random() < 0.7:
        return _rotated(rng, rng.choice(closed))
    return "/".join(rng.choice(edges + ["zz"]) for _ in range(rng.randint(1, 3)))


def _faulty_spec_text(rng, name):
    """A spec for the named corpus graph: values on vertices and on rotated
    closed words, with repeats (rotated, or with another value), bad
    scalars, unknown vertices and edges, and lines of the wrong shape."""
    declared = [line.split() for line in GRAPH_TEXTS[name].splitlines()]
    vertices = [d[1] for d in declared if d[0] == "v"]
    edges = [d[1] for d in declared if d[0] == "e"]
    lines = []
    if rng.random() < 0.7:
        lines.append(f"field {rng.choice(('Q', 'Qi', 'Qi', 'Qi', 'Qi', 'R'))}")
    if rng.random() < 0.3:
        involution = rng.choice(("identity", "conjugation", "conjugation", "conj"))
        lines.append(f"involution {involution}")
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(9)
        if kind <= 1:
            v = rng.choice(vertices + ["zz"] if rng.random() < 0.2 else vertices)
            lines.append(f"vertex {v} {_spec_scalar(rng)}")
        elif kind <= 4 and edges:
            star = f" {_spec_scalar(rng)}" if rng.random() < 0.5 else ""
            word = _spec_word(rng, name, edges)
            lines.append(f"cycle {word} {_spec_scalar(rng)}{star}")
        elif kind <= 7 and lines:
            words = rng.choice(lines).split()
            if words[0] in ("vertex", "cycle") and len(words) > 2:
                if words[0] == "cycle":
                    words[1] = _rotated(rng, words[1])
                if rng.random() < 0.5:
                    words[rng.randrange(2, len(words))] = _spec_scalar(rng)
            lines.append(" ".join(words))
        else:
            lines.append(rng.choice(("vertex a", "cycle", "cycle e 1 2 3", "edge e 1")))
    return "\n".join(lines) + "\n"


# sha256 over [argv, exit code, stdout, stderr] of each run, in order;
# "analyze" recorded before graph and spec checks each moved to one place,
# "eval cohn" again once a spec file was read in one pass: 100 of its runs
# now name a strictly earlier line, each still with exit 2 and no stdout
CONTRACT_DIGESTS = {
    "analyze": "eeaff90cf5c41cf0b1c3987f6bcc40f8daff4fdac66f824cb27a8f08e7b0bf50",
    "eval cohn": "89b19b895e403f935c77fc0920433d3466aa03eabbf2e49bc1962691e34867b9",
}


def test_graph_and_spec_file_errors_match_recorded_digests(tmp_path, capsys, monkeypatch):
    # a fixed seed, not LPA_SEED: the digests pin these exact texts
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2027)
    digests = {}
    codes = set()
    for family in CONTRACT_DIGESTS:
        h = hashlib.sha256()
        for _ in range(1500):
            if family == "analyze":
                with open("g.graph", "w", encoding="utf-8") as f:
                    f.write(_faulty_graph_text(rng))
                argv = ["analyze", "g.graph"]
            else:
                name = rng.choice(sorted(GRAPH_TEXTS))
                with open("g.graph", "w", encoding="utf-8") as f:
                    f.write(GRAPH_TEXTS[name])
                with open("s.spec", "w", encoding="utf-8") as f:
                    f.write(_faulty_spec_text(rng, name))
                argv = ["eval", "g.graph", _golden_expr(GRAPH_TEXTS[name]),
                        "--spec", "s.spec", "--mode", "cohn"]
            code, out, err = _run(capsys, *argv)
            assert "Traceback" not in err
            codes.add((family, code))
            h.update(json.dumps([argv, code, out, err]).encode())
        digests[family] = h.hexdigest()
    assert codes == {(family, code) for family in CONTRACT_DIGESTS for code in (0, 2)}
    assert digests == CONTRACT_DIGESTS


# sha256 over [argv, exit code, stdout, stderr] of each run, in order, on
# every small graph as declared and then with its edge ids reversed;
# recorded before `edge_path` became the one check of a path's edges
GRAPH_CONTRACT_DIGESTS = {
    "analyze": "928fef1cf1c9c674f32361dbb3fbe468b23e569de13179e343f5dba3400f436d",
    "classes --max-len 4": "cf7b50b4204b2160ab46a279e29fcf4a4e5739433148705429cb88bd94e7d5ee",
    "decompose": "68fb7cd466b0284d967bea54eca4193590380cdb93b10b307868787881d71ef5",
}


def _graph_text(g, edge_ids):
    lines = [f"v {v}" for v in g.vertices]
    lines += [f"e {eid} {g.edge_src[e]} {g.edge_dst[e]}" for eid, e in zip(edge_ids, g.edges)]
    return "\n".join(lines) + "\n"


def test_graph_reports_on_every_small_graph_match_recorded_digests(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    hashes = {command: hashlib.sha256() for command in GRAPH_CONTRACT_DIGESTS}
    # one file, rewritten in place for each graph
    with open("g.graph", "w", encoding="utf-8") as graph:
        for g in small_graphs():
            n = len(g.edges)
            for edge_ids in (g.edges, [f"e{n - 1 - i}" for i in range(n)]):
                graph.seek(0)
                graph.truncate()
                graph.write(_graph_text(g, edge_ids))
                graph.flush()
                for command, h in hashes.items():
                    name, *options = command.split()
                    argv = [name, "g.graph", *options]
                    code, out, err = _run(capsys, *argv)
                    assert code in (0, 3) and "Traceback" not in err, (argv, err)
                    h.update(json.dumps([argv, code, out, err]).encode())
    digests = {command: h.hexdigest() for command, h in hashes.items()}
    assert digests == GRAPH_CONTRACT_DIGESTS


# sha256 over [argv, exit code, stdout, stderr] of each run, in order, on
# every semigroup of order at most 4 with a zero adjoined; recorded before
# `sim_classes` read only the rows of Light's generators
SG_CONTRACT_DIGESTS = {
    "sg classes": "9dde51e1cb080c197f0c8c3c0e66d0be77692c40b3005d791d7ae17dc8d1e02e",
    "sg minimal": "0d84ef12053c338bd48dcdb08f414d59e9e8af8179c251cdeab4983ae1537510",
}


def test_sg_reports_on_every_small_semigroup_match_recorded_digests(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    hashes = {command: hashlib.sha256() for command in SG_CONTRACT_DIGESTS}
    # one file, rewritten in place for each table
    with open("s.cayley", "w", encoding="utf-8") as cayley:
        for table in small_tables_with_zero():
            cayley.seek(0)
            cayley.truncate()
            cayley.write(cayley_text(table))
            cayley.flush()
            for command, h in hashes.items():
                argv = ["sg", "s.cayley", command.split()[1]]
                code, out, err = _run(capsys, *argv)
                assert code == 0 and not err, (table, err)
                h.update(json.dumps([argv, code, out, err]).encode())
    digests = {command: h.hexdigest() for command, h in hashes.items()}
    assert digests == SG_CONTRACT_DIGESTS


# sha256 over [argv, exit code, stdout, stderr] of `lpa sg FILE classes` on
# each of `_faulty_cayley_texts`, in order; recorded before `parse_cayley`
# handed its rows to `build_semigroup` as the table
CAYLEY_FAULT_DIGEST = "9d69375bee33132f3e495ac22d7a5a6db9ab09e234300b4ccd7c8ebdeb949f1d"


def _faulty_cayley_texts():
    """Cayley texts at 10 and 257 elements, null and right-zero tables:
    entries out of range written plainly (`300`, n) and through the
    `natural_numbers` fallback (`0300`, 0n), an in-range fallback entry
    (`007`), a sign and a letter, each in the first and in the last row;
    short and long rows; an out-of-range row before a malformed or
    conflicting label line, whose error wins; a non-associative table, a
    zero that is not absorbing, a zero index out of range, and a valid
    table with a fallback entry and a label."""
    for n in (10, 257):
        null = [["0"] * n for _ in range(n)]
        # x*y = y on the nonzero elements
        right_zero = [["0"] * n] + [[str(y) for y in range(n)] for _ in range(n - 1)]

        def text(rows, zero=0, tail=()):
            return "\n".join([f"n {n} zero {zero}", *map(" ".join, rows), *tail]) + "\n"

        def with_word(base, row, col, word):
            rows = [list(r) for r in base]
            rows[row][col] = word
            return rows

        for base in (null, right_zero):
            for row in (0, n - 1):
                for word in ("300", "0300", str(n), "0" + str(n), "007", "-1", "x"):
                    yield text(with_word(base, row, 7, word))
                yield text(with_word(base, row, 7, "0 0"))  # a long row
                yield text(with_word(base, row, 7, ""))  # a short row
        for word in ("300", "0300"):
            yield text(with_word(null, 3, 5, word), tail=["label 1 a", "label x b"])
            yield text(with_word(null, 3, 5, word), tail=["label 1 a", "label 1 b"])
        yield text(with_word(null, 1, 2, "1"))  # (1*2)*2 = 1 != 0 = 1*(2*2)
        yield text(null, zero=1)  # 1 is not absorbing
        yield text(null, zero=n)  # zero index out of range
        yield text(with_word(right_zero, n - 1, n - 1, "0" + str(n - 1)), tail=["label 2 b"])


def _sg_classes_digest(capsys, texts):
    """sha256 over [argv, exit code, stdout, stderr] of `lpa sg s.cayley
    classes` on each of `texts`, in order, and the set of exit codes."""
    h = hashlib.sha256()
    codes = set()
    for text in texts:
        with open("s.cayley", "w", encoding="utf-8") as f:
            f.write(text)
        argv = ["sg", "s.cayley", "classes"]
        code, out, err = _run(capsys, *argv)
        assert "Traceback" not in err
        codes.add(code)
        h.update(json.dumps([argv, code, out, err]).encode())
    return h.hexdigest(), codes


def test_faulty_cayley_texts_match_recorded_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest, codes = _sg_classes_digest(capsys, _faulty_cayley_texts())
    assert codes == {0, 2}
    assert digest == CAYLEY_FAULT_DIGEST


# sha256 over [argv, exit code, stdout, stderr] of `lpa sg FILE classes` on
# each of `_repeated_cayley_texts`, in order; recorded before `parse_cayley`
# read a row equal to the row before it only once
CAYLEY_REPEAT_DIGEST = "076ab9bd0f4d7e3d4965a88871a81bd34fbb798804eae3ee843fdac2fe91ca2d"


def _repeated_cayley_texts():
    """Cayley texts at 10 and 257 elements, null and right-zero tables, in
    which one row text comes 2 or 3 times in a run, first or last in the
    table: a faulty row (an entry n written plainly and as `0n`, a sign, a
    short row), its copies adjacent, apart by a blank line or by a comment
    line, or each with a trailing comment; an in-range fallback row
    (`007`); and a faulty row between repeated valid rows."""
    for n in (10, 257):
        null = [["0"] * n for _ in range(n)]
        right_zero = [["0"] * n] + [[str(y) for y in range(n)] for _ in range(n - 1)]

        def text(rows):
            return "\n".join([f"n {n} zero 0", *rows]) + "\n"

        def faulty(row, word):
            words = list(row)
            words[7] = word
            return " ".join(words)

        def runs(line, copies):
            yield [line] * copies
            for between in ("", "# between copies"):
                yield [line] + [between, line] * (copies - 1)
            yield [line + "  # a copy"] * copies

        for base in (null, right_zero):
            lines = [" ".join(row) for row in base]
            for copies in (2, 3):
                for start in (0, n - copies):
                    rest = lines[start + copies:]
                    for word in (str(n), "0" + str(n), "-1", ""):
                        for run in runs(faulty(base[start], word), copies):
                            yield text(lines[:start] + run + rest)
                    yield text(lines[:start] + [faulty(base[start], "007")] * copies + rest)
            for word in (str(n), "0" + str(n), "-1", ""):
                yield text(lines[:3] + [faulty(base[3], word)] + lines[4:])


def test_repeated_cayley_rows_match_recorded_digest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest, codes = _sg_classes_digest(capsys, _repeated_cayley_texts())
    assert codes == {0, 2}
    assert digest == CAYLEY_REPEAT_DIGEST
