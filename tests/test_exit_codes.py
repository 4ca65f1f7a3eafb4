"""`lpa` keeps its exit-code contract on every input: 0, 2 or 3.

A seeded fuzz runs `cli.main` in process on mutated graph, spec, Cayley
and expression text for all five subcommands.  Fixed cases pin the exit
code and a part of stderr of inputs that were misread or exited 1, and of
Cayley tables on both sides of the 256-element layout switch; a child
process checks a closed stdout pipe.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lpatrace
from lpatrace.cli import main

from conftest import GRAPH_TEXTS, cayley_text, fresh_rng

# Each is inserted into, or put in place of part of, a valid input.
NASTY = (
    "٣", "²", "é", "\x00", "1/0", "x/0", "9" * 5000, "1/" + "7" * 5000, "9" * 3000,
    "1_0", "-1", "99", "0", "1i", "i", "/", "'", ".", "*", "+", "-", "#",
    " ", "\n", "n", "zero", "label 7 x", "vertex", "cycle", "e/e/e/e/e", "1", "2",
)

CAYLEY_TEXTS = (
    "n 3 zero 0\n0 0 0\n0 1 2\n0 2 1\nlabel 1 e\nlabel 2 g\n",
    "n 5 zero 0\n0 0 0 0 0\n0 1 2 0 0\n0 0 0 1 2\n0 3 4 0 0\n0 0 0 3 4\n",
    "n 2 zero 1\n1 1\n1 1\n",
)


def _spec(graph_text: str) -> str:
    """A spec valid in both modes: zero on vertices, values on loops."""
    lines = ["field Qi", "involution conjugation"]
    for line in graph_text.splitlines():
        kind, name, *ends = line.split()
        if kind == "v":
            lines.append(f"vertex {name} 0")
        elif ends[0] == ends[1]:
            lines.append(f"cycle {name} 1/2-3i 2")
    return "\n".join(lines) + "\n"


def _expr(graph_text: str, rng) -> str:
    """Terms over the graph's ids, with one long closed path if it has a loop."""
    terms = []
    for line in graph_text.splitlines():
        kind, name, *ends = line.split()
        if kind == "v":
            terms.append(f"2*{name}")
        else:
            terms += [name, f"1/2*{name}'", f"{name}.{name}'"]
            if ends[0] == ends[1]:
                p = "/".join([name] * rng.randint(1, 200))
                terms += [p, f"{p}.{p}'"]
    return " + ".join(terms)


def _mutate(text: str, rng) -> str:
    """Up to three edits: a word replaced, keeping the layout, or a string
    inserted at any character; the replacement may be another word of the
    text."""
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        parts = re.split(r"(\s+)", text)  # words at the even indices
        nasty = rng.choice(NASTY + tuple(parts[::2]))
        if rng.random() < 0.5:
            parts[rng.randrange(0, len(parts), 2)] = nasty
            text = "".join(parts)
        else:
            i = rng.randint(0, len(text))
            text = text[:i] + nasty + text[i:]
    return text


def _write(path: Path, text: str, rng, corrupt: bool) -> str:
    data = text.encode("utf-8")
    if corrupt and rng.random() < 0.1:  # a byte that is not UTF-8
        i = rng.randint(0, len(data))
        data = data[:i] + rng.choice((b"\xff", b"\xc3", b"\x80")) + data[i:]
    path.write_bytes(data)
    return str(path)


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fuzz_case(tmp_path, rng):
    """(argv, description) of one run with one mutated input."""
    name = rng.choice(sorted(GRAPH_TEXTS))
    graph_text = GRAPH_TEXTS[name]
    texts = {"graph": graph_text, "spec": _spec(graph_text),
             "expr": _expr(graph_text, rng), "cayley": rng.choice(CAYLEY_TEXTS)}
    command = rng.choice(("analyze", "classes", "eval", "decompose", "sg"))
    target = {"eval": rng.choice(("graph", "spec", "expr")), "sg": "cayley"}.get(
        command, "graph")
    texts[target] = _mutate(texts[target], rng)
    graph = _write(tmp_path / "g.graph", texts["graph"], rng, target == "graph")
    if command == "classes":
        max_len = rng.choice(("0", "2", "3", "4", "5", "5", "٣", "-1", "1_0", "9" * 5000))
        argv = ["classes", graph, "--max-len", max_len]
    elif command == "eval":
        spec = _write(tmp_path / "s.spec", texts["spec"], rng, target == "spec")
        mode = rng.choice(("leavitt", "cohn"))
        argv = ["eval", graph, texts["expr"], "--spec", spec, "--mode", mode]
    elif command == "sg":
        cayley = _write(tmp_path / "c.cayley", texts["cayley"], rng, True)
        argv = ["sg", cayley, rng.choice(("classes", "minimal", "normalized"))]
    else:
        argv = [command, graph]
    return argv, f"{command} on {name}, mutated {target}: {texts[target][:200]!r}"


def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = fresh_rng(12)
    seen = set()
    for _ in range(1000):
        argv, case = _fuzz_case(tmp_path, rng)
        try:
            code, out, err = _run(capsys, argv)
        except Exception as exc:  # name the input that broke the contract
            pytest.fail(f"{case}: {exc!r}")
        assert code in (0, 2, 3), case
        assert "Traceback" not in err, case
        assert (out == "") == (code != 0), case
        seen.add(code)
    assert seen == {0, 2, 3}


def test_fixed_regressions(tmp_path, capsys):
    loop = tmp_path / "loop.graph"
    loop.write_text(GRAPH_TEXTS["one_loop"], encoding="utf-8")
    # the right-zero semigroup on 1..10 with a zero: x*y = y
    rows = ["0 " * 10 + "0"] + ["0 1 2 3 4 5 6 7 8 9 1_0"] * 10
    files = {
        "arabic.cayley": "n ٢ zero 0\n0 0\n0 1\n",
        "underscore.cayley": "n 11 zero 0\n" + "\n".join(rows) + "\n",
        "sign_head.cayley": "n -1 zero 0\n",
        "sign_row.cayley": "n 2 zero 0\n0 0\n0 -1\n",
        "sign_label.cayley": "n 2 zero 0\n0 0\n0 1\nlabel -1 x\n",
        "long_entry.cayley": "n 2 zero 0\n0 0\n0 " + "1" * 5000 + "\n",
        "u.graph": "v u\n",
        "u.spec": "vertex u " + "9" * 3000 + "\n",
        "nonassoc.cayley": "n 3 zero 0\n0 0 0\n0 2 0\n0 1 0\n",
        # Light's test names the triple in index order, not the first
        # failing generator's
        "reorder.cayley": "n 4 zero 0\n0 0 0 0\n0 1 1 1\n0 1 1 1\n0 3 1 1\n",
    }
    # null tables but for one entry: 256 elements are read into bytes, 257
    # into tuple rows
    for n in (256, 257):
        files[f"bad{n}.cayley"] = cayley_text(
            [[n - 2 if (i, j) == (n - 2, n - 1) else 0 for j in range(n)] for i in range(n)])
    files["range257.cayley"] = cayley_text(
        [[257 if (i, j) == (5, 7) else 0 for j in range(257)] for i in range(257)])
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    def sg(name):
        return ["sg", str(tmp_path / name), "classes"]

    digits = "must be ASCII digits [0-9]+"
    # name: (exit code, argv, a part of stderr)
    cases = {
        "non-ASCII Cayley size": (2, sg("arabic.cayley"), ""),
        "underscore in a Cayley entry": (2, sg("underscore.cayley"), ""),
        "non-ASCII --max-len": (
            2, ["classes", str(loop), "--max-len", "٣"], f"--max-len {digits}"),
        "5000-digit --max-len": (
            2, ["classes", str(loop), "--max-len", "9" * 5000],
            f"--max-len must have at most {sys.get_int_max_str_digits()} digits"),
        "result past the digit limit": (
            3, ["eval", str(tmp_path / "u.graph"), "9" * 3000 + "*u",
                "--spec", str(tmp_path / "u.spec")],
            "result has an integer of 6000 digits"),
        "sign in the Cayley header": (
            2, sg("sign_head.cayley"), f"line 1: size and zero index {digits}"),
        "sign in a Cayley row": (
            2, sg("sign_row.cayley"), f"line 3: table entries {digits}"),
        "sign in a Cayley label": (
            2, sg("sign_label.cayley"), f"line 4: label index {digits}"),
        "5000-digit Cayley entry": (
            2, sg("long_entry.cayley"),
            f"line 3: table entries must have at most "
            f"{sys.get_int_max_str_digits()} digits"),
        "non-associative table": (2, sg("nonassoc.cayley"), "not associative"),
        "non-associative table of 256 elements": (2, sg("bad256.cayley"), "not associative"),
        "non-associative table of 257 elements": (2, sg("bad257.cayley"), "not associative"),
        "triple named in index order": (
            2, sg("reorder.cayley"), "input error: table not associative: (3*1)*2 != 3*(1*2)\n"),
        "entry 257 in a 257-element table": (
            2, sg("range257.cayley"), "table entry out of range"),
    }
    for name, (want, argv, text) in cases.items():
        code, out, err = _run(capsys, argv)
        assert code == want and out == "", name
        assert "Traceback" not in err and text in err, name
    # the same table with plain digits is valid
    (tmp_path / "plain.cayley").write_text(
        files["underscore.cayley"].replace("1_0", "10"), encoding="utf-8")
    code, _, _ = _run(capsys, ["sg", str(tmp_path / "plain.cayley"), "classes"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "loop.graph"],  # a short report
    ["classes", "loop.graph", "--max-len", "2000"],  # longer than the io buffer
])
def test_closed_stdout_pipe_exits_0(tmp_path, argv):
    (tmp_path / "loop.graph").write_text(GRAPH_TEXTS["one_loop"], encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(lpatrace.__file__).parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lpatrace.cli", *argv], cwd=tmp_path, env=env,
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
