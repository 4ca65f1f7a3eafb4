"""Command-line front end.

Subcommands: `analyze`, `classes`, `eval`, `decompose` on graph files, and
`sg` on Cayley-table files.  Each `cmd_*` returns its inputs and its
result, and `main` prints them as one deterministic JSON report with the
keys `command`, `inputs`, `result` and `diagnostics`.  Exit codes: 0
success, 2 malformed input, 3 failed mathematical precondition.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from .errors import ParseError, PreconditionError
from .graphs import (
    closed_paths_up_to,
    cycles,
    infinite_paths_tame,
    is_no_exit,
    parse_graph,
    regular_vertices,
    sinks,
)
from .path_algebras import COHN, LEAVITT, PathAlgebra, parse_element
from .scalars import CONJUGATION, IDENTITY, Q, QI, format_scalar, natural_numbers
from .semigroups import (
    admits_normalized_minimal,
    is_minimal_sg_trace,
    minimal_trace,
    parse_cayley,
    sim_classes,
)
from .structure import decompose, decomposition_report
from .traces import (
    faithful_trace_exists,
    parse_trace_spec,
    trace_eval,
    vertex_trace_space,
)


def _file(path: str) -> tuple:
    """The text of the file at `path` and its `inputs` entry: the path as
    given and the sha256 of the text."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text, {"path": path, "sha256": digest}


# exact types, so that a subclass of one is laid out frame by frame
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encoder(depth: int):
    """`encode` of the C JSON encoder with sorted keys, whose item separator
    holds the newline and indent of an item `depth` levels in."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def _print(report: dict) -> None:
    """Print `json.dumps(report, indent=2, sort_keys=True)` and a newline.

    A nonempty dict or list whose values are all strings, numbers, booleans
    or None goes to the C encoder in one call, and only its brackets move
    onto lines of their own; its text is kept by (object id, depth) for the
    call, so one list under two keys is encoded once.  The other containers
    are opened frame by frame, with no recursion.  Dict keys are strings.
    """
    encode = _encoder(0)
    chunks = []
    flat = {}  # (id, depth) of each flat container: its chunks
    frames = [(zip([""], [report]), "")]  # (head, value) pairs, closing text
    while frames:
        pairs, close = frames[-1]
        for head, value in pairs:
            chunks.append(head)
            is_dict = isinstance(value, dict)
            if not (is_dict or isinstance(value, (list, tuple))):
                chunks.append(encode(value))
                continue
            if not value:
                chunks.append("{}" if is_dict else "[]")
                continue
            key = (id(value), len(frames))
            if key in flat:
                chunks += flat[key]
                continue
            outer = "\n" + "  " * (len(frames) - 1)
            inner = outer + "  "
            values = value.values() if is_dict else value
            if _SCALAR_TYPES.issuperset(map(type, values)):
                text = _encoder(len(frames))(value)
                flat[key] = text[0], inner, text[1:-1], outer, text[-1]
                chunks += flat[key]
                continue
            if is_dict:
                keys = sorted(value)
                heads = [f",{inner}{encode(k)}: " for k in keys]
                values = [value[k] for k in keys]
            else:
                heads = ["," + inner] * len(value)
            heads[0] = heads[0][1:]
            chunks.append("{" if is_dict else "[")
            frames.append((zip(heads, values), outer + ("}" if is_dict else "]")))
            break
        else:
            frames.pop()
            chunks.append(close)
    print("".join(chunks))


def cmd_analyze(args) -> tuple:
    text, graph = _file(args.graph)
    g = parse_graph(text)
    return {"graph": graph}, {
        "no_exit": is_no_exit(g),
        "tame": infinite_paths_tame(g),
        "sinks": list(sinks(g)),
        "regular_vertices": list(regular_vertices(g)),
        "cycles": ["/".join(c.edges) for c in cycles(g)],
        "vertex_trace_space_dim": vertex_trace_space(g, Q).dimension,
        "faithful_trace_exists": {
            "Q,identity": bool(faithful_trace_exists(g, Q, IDENTITY)),
            "Qi,conjugation": bool(faithful_trace_exists(g, QI, CONJUGATION)),
        },
    }


def cmd_classes(args) -> tuple:
    try:
        (max_len,) = natural_numbers([args.max_len])
    except ValueError as exc:
        raise ParseError(f"--max-len {exc}, got {args.max_len[:20]!r}") from None
    text, graph = _file(args.graph)
    g = parse_graph(text)
    # every id character, [A-Za-z0-9_], sorts above "/", so the joined
    # texts sort as the edge words do
    joined = sorted(["/".join(p.edges) for p in closed_paths_up_to(g, max_len)])
    return {"graph": graph}, {
        "vertex_classes": list(g.vertices),
        "cycle_classes": joined,
        "cycle_star_classes": joined,
        "max_len": max_len,
    }


def cmd_eval(args) -> tuple:
    # both files are read before either is parsed
    graph_text, graph = _file(args.graph)
    spec_text, spec_file = _file(args.spec)
    g = parse_graph(graph_text)
    spec = parse_trace_spec(spec_text, g)
    mode = LEAVITT if args.mode == "leavitt" else COHN
    algebra = PathAlgebra(g, spec.field, spec.involution, mode)
    element = parse_element(args.expr, algebra)
    value = trace_eval(g, spec, element)
    return {"graph": graph, "spec": spec_file}, {
        "expr": args.expr,
        "mode": args.mode,
        "field": spec.field,
        "involution": spec.involution,
        "value": format_scalar(value),
    }


def cmd_decompose(args) -> tuple:
    text, graph = _file(args.graph)
    return {"graph": graph}, decomposition_report(decompose(parse_graph(text)))


def cmd_sg(args) -> tuple:
    text, cayley = _file(args.cayley)
    G = parse_cayley(text)
    part = sim_classes(G)
    classes = [[G.label(i) for i in cls] for cls in part.classes]
    if args.action == "classes":
        result = {
            "classes": classes,
            "zero_class": part.zero_class_id,
            "nonzero_class_count": len(part.nonzero_class_ids),
        }
    elif args.action == "minimal":
        delta = minimal_trace(G)
        result = {
            "classes": classes,
            "zero_class": part.zero_class_id,
            "delta": {
                G.label(i): (
                    None
                    if part.class_of[i] == part.zero_class_id
                    else part.class_of[i]
                )
                for i in range(G.size)
            },
            "is_minimal": is_minimal_sg_trace(G, delta),
        }
    else:
        result = {"admits_normalized_minimal": admits_normalized_minimal(G)}
    return {"cayley": cayley}, result


@functools.cache  # built by the first `main` call, then reused
def build_parser() -> argparse.ArgumentParser:
    # each `func` reads its cmd_* name when called, not when the parser is
    # built, so a later rebinding (a wrapper, a monkeypatch) takes effect
    parser = argparse.ArgumentParser(
        prog="lpa",
        description="Exact traces on Cohn and Leavitt path algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report for a graph file")
    p.add_argument("graph")
    p.set_defaults(func=lambda args: cmd_analyze(args))

    p = sub.add_parser("classes", help="closed-path classes up to a length")
    p.add_argument("graph")
    p.add_argument("--max-len", default="3")
    p.set_defaults(func=lambda args: cmd_classes(args))

    p = sub.add_parser("eval", help="evaluate a trace on an element expression")
    p.add_argument("graph")
    p.add_argument("expr")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=["cohn", "leavitt"], default="leavitt")
    p.set_defaults(func=lambda args: cmd_eval(args))

    p = sub.add_parser("decompose", help="matrix-block decomposition report")
    p.add_argument("graph")
    p.set_defaults(func=lambda args: cmd_decompose(args))

    p = sub.add_parser("sg", help="semigroup analyses on a Cayley-table file")
    p.add_argument("cayley")
    p.add_argument("action", choices=["classes", "minimal", "normalized"])
    p.set_defaults(func=lambda args: cmd_sg(args))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, result = args.func(args)
        command = f"sg {args.action}" if args.command == "sg" else args.command
        _print({
            "command": command, "inputs": inputs, "result": result, "diagnostics": [],
        })
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return 0
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left early, after the report was computed; stdout now
        # goes to devnull, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
