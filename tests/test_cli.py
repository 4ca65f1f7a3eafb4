import hashlib
import json
import math
import time

from lpatrace.cli import main

from conftest import GRAPH_TEXTS


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
    code, out, _ = _run(
        capsys, "eval", graph, "v + e + e' + v", "--spec", spec,
        "--mode", "leavitt",
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == "2+2i"


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


def test_sg_commands(tmp_path, capsys):
    rows = ["0 0 0", "0 1 2", "0 2 1"]
    text = "n 3 zero 0\n" + "\n".join(rows) + "\nlabel 1 e\nlabel 2 g\n"
    cayley = _write(tmp_path, "c2.cayley", text)

    code, out, _ = _run(capsys, "sg", cayley, "classes")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["classes"] == [["0"], ["e"], ["g"]]
    assert result["nonzero_class_count"] == 2

    code, out, _ = _run(capsys, "sg", cayley, "minimal")
    result = json.loads(out)["result"]
    assert result["is_minimal"] is True
    assert result["delta"]["0"] is None

    code, out, _ = _run(capsys, "sg", cayley, "normalized")
    result = json.loads(out)["result"]
    assert result["admits_normalized_minimal"] is False


def test_input_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.graph", "e f a b\n")
    code, _, err = _run(capsys, "analyze", bad)
    assert code == 2 and "line 1" in err
    code, _, err = _run(capsys, "analyze", str(tmp_path / "missing.graph"))
    assert code == 2
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
    cases = {
        "conflicting cycle": ("eval", rose, "e/f", "--mode", "cohn", "--spec",
                              _write(tmp_path, "c.spec", "cycle e/f 1\ncycle f/e 2\n")),
        "conflicting star": ("eval", rose, "e/f", "--mode", "cohn", "--spec",
                             _write(tmp_path, "s.spec", "cycle e/f 1 1\ncycle f/e 1 2\n")),
        "conflicting vertex": ("eval", rose, "v", "--mode", "cohn", "--spec",
                               _write(tmp_path, "v.spec", "vertex v 1\nvertex v 2\n")),
        "zero denominator in expression": ("eval", rose, "1/0", "--spec", plain),
        "zero denominator in spec": ("eval", rose, "v", "--spec",
                                     _write(tmp_path, "z.spec", "vertex v 1/0\n")),
        "non-UTF-8 file": ("analyze", str(binary)),
        "label out of range": ("sg", _write(tmp_path, "r.cayley", cayley + "label 5 x\n"),
                               "classes"),
        "label given twice": ("sg", _write(tmp_path, "d.cayley",
                                           cayley + "label 1 x\nlabel 1 y\n"), "classes"),
    }
    for name, argv in cases.items():
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", name
        assert err.startswith("input error:") and "Traceback" not in err, name
    for name in ("conflicting cycle", "conflicting star", "conflicting vertex"):
        _, _, err = _run(capsys, *cases[name])
        assert "line 2: conflicting values" in err, name
    _, _, err = _run(capsys, *cases["label given twice"])
    assert "line 5" in err
    # repeating a value is not a conflict
    same = _write(tmp_path, "same.spec",
                  "cycle e/f 1 2\ncycle f/e 1 2\nvertex v 0\nvertex v 0\n")
    code, out, _ = _run(capsys, "eval", rose, "e/f", "--mode", "cohn", "--spec", same)
    assert code == 0 and json.loads(out)["result"]["value"] == "1"


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
