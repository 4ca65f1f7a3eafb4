"""The benchmark's workloads: seeded inputs, one query, and its checks.

A workload builds its inputs and long-lived contexts in its constructor
(set-up), yields queries from a seeded generator, runs one query in `run`
(the timed part) and checks the result in `check` against `refs`, which
does not use lpatrace.  `check` returns None or a description of the
failure.  lpatrace functions are looked up on the package at call time, so
that wrappers installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import lpatrace as lpa
import lpatrace.cli as lpa_cli

import refs
from refs import ZERO, GraphSpec, Term, least_rotation

DIGESTS = Path(__file__).with_name("digests.json")


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@functools.cache
def _seed_digests() -> dict:
    """Output digests recorded on the seed commit, for inputs with no
    closed-form reference (see record_digests.py)."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


class Workload:
    name = ""
    warmup = 0  # untimed queries run before measuring
    output_bytes = 0  # bytes of report text produced by queries

    def queries(self, rng: random.Random):
        raise NotImplementedError

    def run(self, query):
        raise NotImplementedError

    def check(self, query, out):
        raise NotImplementedError

    def digest(self, out) -> str:
        return short_hash(repr(out))

    def close(self) -> None:
        pass


# -- graphs, trace values and elements ----------------------------------------


def rose(r: int) -> GraphSpec:
    loops = [(f"l{i}", "v", "v") for i in range(r)]
    return GraphSpec(["v"], loops, [(e,) for e, _, _ in loops], no_exit=r == 1)


def complete_digraph(n: int) -> GraphSpec:
    verts = [f"a{i}" for i in range(n)]
    edges = [(f"e{i}_{j}", verts[i], verts[j])
             for i in range(n) for j in range(n) if i != j]
    return GraphSpec(verts, edges, cycles=None, no_exit=False)


def random_graph(rng: random.Random, exits: bool) -> GraphSpec:
    """Planted cycles and sinks fed by an acyclic tree of vertices.

    Without exits the graph is no-exit, so it decomposes.  Exit edges run
    from cycle vertices to sinks, which adds no cycle.
    """
    vertices, edges, cycles, on_cycle = [], [], [], []
    for i in range(rng.randint(1, 3)):
        k = rng.randint(1, 3)
        names = [f"c{i}_{j}" for j in range(k)]
        word = tuple(f"y{i}_{j}" for j in range(k))
        edges += [(word[j], names[j], names[(j + 1) % k]) for j in range(k)]
        cycles.append(least_rotation(word))
        vertices += names
        on_cycle += names
    sinks = [f"s{i}" for i in range(rng.randint(1, 2))]
    tree = [f"t{i}" for i in range(rng.randint(3, 7))]
    vertices += sinks + tree
    for i, t in enumerate(tree):
        targets = tree[i + 1:] + on_cycle + sinks
        for j, dst in enumerate(rng.sample(targets, rng.randint(1, 2))):
            edges.append((f"x{i}_{j}", t, dst))
    if exits:
        for j in range(rng.randint(1, 2)):
            edges.append((f"z{j}", rng.choice(on_cycle), rng.choice(sinks)))
    rng.shuffle(vertices)
    return GraphSpec(vertices, edges, cycles, no_exit=not exits)


def random_scalar(rng: random.Random, field: str):
    re_part = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))
    im_part = Fraction(rng.randint(-4, 4)) if field == lpa.QI else Fraction(0)
    return (re_part, im_part)


def balanced_vertex_values(rng: random.Random, spec: GraphSpec, field: str) -> dict:
    """Values meeting t(v) = sum of t(r(e)) on a no-exit graph: one free value
    per cycle and per sink, the rest summed along the tree."""
    out = {v: [] for v in spec.vertices}
    for _, s, d in spec.edges:
        out[s].append(d)
    level = {}
    for word in spec.cycles:
        value = random_scalar(rng, field)
        level.update({spec.src(e): value for e in word})
    values = {}

    def value_of(v):
        if v not in values:
            if v in level:
                values[v] = level[v]
            elif not out[v]:
                values[v] = random_scalar(rng, field)
            else:
                acc = ZERO
                for d in out[v]:
                    acc = refs.add(acc, value_of(d))
                values[v] = acc
        return values[v]

    for v in spec.vertices:
        value_of(v)
    return values


@dataclass
class TraceValues:
    """A trace spec as plain data: vertex, cycle and starred-cycle values."""

    field: str
    involution: str
    vertex: dict
    cycle: dict  # least-rotation edge word -> scalar
    star: dict

    def text(self) -> str:
        lines = [f"field {self.field}", f"involution {self.involution}"]
        lines += [f"vertex {v} {refs.scalar_text(c)}" for v, c in self.vertex.items()]
        lines += [
            f"cycle {'/'.join(w)} {refs.scalar_text(c)} {refs.scalar_text(self.star[w])}"
            for w, c in self.cycle.items()
        ]
        return "\n".join(lines) + "\n"

    def spec(self, g):
        def fe(c):
            return lpa.fe(c[0], c[1], self.field)

        return lpa.trace_spec(
            g, self.field, self.involution,
            vertex_values={v: fe(c) for v, c in self.vertex.items()},
            cycle_values={w: fe(c) for w, c in self.cycle.items()},
            cycle_star_values={w: fe(c) for w, c in self.star.items()},
        )

    def value(self, terms):
        return refs.trace_value(terms, self.vertex, self.cycle, self.star)


def trace_values(rng, spec: GraphSpec, field, involution, vertex=None) -> TraceValues:
    """Random values on cycle classes (each planted cycle, its square, and on
    a rose a few longer words); vertex values balanced unless given."""
    if vertex is None:
        vertex = balanced_vertex_values(rng, spec, field)
    words = {w for c in spec.cycles for w in (c, c + c)}
    if len(spec.vertices) == 1:
        loops = [e for e, _, _ in spec.edges]
        words |= {
            least_rotation(rng.choice(loops) for _ in range(rng.randint(2, 3)))
            for _ in range(3)
        }
    words = sorted(words)
    cycle = {w: random_scalar(rng, field) for w in words}
    star = {w: random_scalar(rng, field) for w in words}
    return TraceValues(field, involution, vertex, cycle, star)


def random_element(rng: random.Random, spec: GraphSpec, field: str,
                   terms=(4, 12), max_len=4):
    """Expression text of sum(+-c p.q') and its terms, p and q of length
    at most max_len ending at the same vertex."""
    out = {v: [] for v in spec.vertices}
    into = {v: [] for v in spec.vertices}
    for e, s, d in spec.edges:
        out[s].append((e, d))
        into[d].append((e, s))
    text, result = [], []
    for _ in range(rng.randint(*terms)):
        start = v = rng.choice(spec.vertices)
        pw = []
        for _ in range(rng.randint(0, max_len)):
            if not out[v]:
                break
            e, v = rng.choice(out[v])
            pw.append(e)
        end = qsrc = v
        qw = []
        for _ in range(rng.randint(0, max_len)):
            if not into[qsrc]:
                break
            e, qsrc = rng.choice(into[qsrc])
            qw.insert(0, e)
        sign = rng.choice((1, -1))
        c = random_scalar(rng, field)
        p_text = "/".join(pw) or start
        q_text = "/".join(qw) or qsrc
        text.append(f"{'-' if sign < 0 else '+'} {refs.scalar_text(c)}*{p_text}.{q_text}'")
        result.append(Term((sign * c[0], sign * c[1]), (start, tuple(pw)),
                           (qsrc, tuple(qw)), end))
    return " ".join(text), result


def _pair(x):
    return (x.re, x.im)


# -- algebra_session ------------------------------------------------------------


@dataclass
class _AlgebraContext:
    spec: GraphSpec
    graph: object
    algebra: object
    trace: object
    values: TraceValues
    dec: object


class AlgebraSession(Workload):
    """Warm Leavitt arithmetic on long-lived contexts.

    Contexts are (graph, field) pairs over roses with 2 and 3 petals, the
    two-cycle, a tail into a 3-cycle with a side sink (no-exit), and a loop
    with an exit; each with a validated trace spec, plus a decomposition on
    the no-exit graphs.
    """

    name = "algebra_session"
    warmup = 20

    def __init__(self, seed, root=None):
        rng = random.Random(f"{seed}:inputs")

        def rose_values(rng, field):  # t(v) = r t(v) forces t(v) = 0
            return {"v": ZERO}

        def exit_values(rng, field):  # t(v) = t(v) + t(w) forces t(w) = 0
            return {"v": random_scalar(rng, field), "w": ZERO}

        # (graph, vertex values or None for balanced values on a no-exit graph)
        graphs = [
            (rose(2), rose_values),
            (rose(3), rose_values),
            (GraphSpec(["u", "w"], [("f", "u", "w"), ("g", "w", "u")], [("f", "g")]), None),
            (GraphSpec(
                ["t0", "t1", "s0", "c0", "c1", "c2"],
                [("p0", "t0", "t1"), ("p1", "t1", "c0"), ("p2", "t0", "s0"),
                 ("k0", "c0", "c1"), ("k1", "c1", "c2"), ("k2", "c2", "c0")],
                [("k0", "k1", "k2")]), None),
            (GraphSpec(["v", "w"], [("l", "v", "v"), ("x", "v", "w")], [("l",)],
                       no_exit=False), exit_values),
        ]
        self.contexts = []
        for spec, vertex in graphs:
            g = lpa.parse_graph(spec.text())
            dec = lpa.decompose(g) if spec.no_exit else None
            for field, involution in ((lpa.QI, lpa.CONJUGATION), (lpa.Q, lpa.IDENTITY)):
                vertex_values = vertex and vertex(rng, field)
                values = trace_values(rng, spec, field, involution, vertex_values)
                trace = values.spec(g)
                if not lpa.validate_trace_spec(g, trace):
                    raise RuntimeError(f"generated spec is invalid on {spec.text()!r}")
                algebra = lpa.PathAlgebra(g, field, involution, lpa.LEAVITT)
                self.contexts.append(_AlgebraContext(spec, g, algebra, trace, values, dec))

    def queries(self, rng):
        for i in itertools.count():
            ctx = self.contexts[i % len(self.contexts)]
            field = ctx.algebra.field
            yield ctx, random_element(rng, ctx.spec, field), random_element(rng, ctx.spec, field)

    def run(self, query):
        ctx, (x_text, _), (y_text, _) = query
        x = lpa.parse_element(x_text, ctx.algebra)
        y = lpa.parse_element(y_text, ctx.algebra)
        xy, yx = x * y, y * x
        x_star = lpa.alg_star(x)
        t_xy = lpa.trace_eval(ctx.graph, ctx.trace, xy)
        t_yx = lpa.trace_eval(ctx.graph, ctx.trace, yx)
        images = ()
        if ctx.dec is not None:
            images = tuple(lpa.phi(ctx.dec, z) for z in (x, y, xy))
        return x, y, xy, yx, x_star, t_xy, t_yx, images

    def check(self, query, out):
        ctx, (_, x_terms), (_, y_terms) = query
        x, y, xy, yx, x_star, t_xy, t_yx, images = out
        if _pair(t_xy) != _pair(t_yx):
            return f"t(xy) = {t_xy} but t(yx) = {t_yx}"
        for z, terms in ((x, x_terms), (y, y_terms)):
            got = _pair(lpa.trace_eval(ctx.graph, ctx.trace, z))
            if got != ctx.values.value(terms):
                return f"t(x) = {got}, class-value reference {ctx.values.value(terms)}"
        if images:
            px, py, pxy = (_blocks(m) for m in images)
            if refs.block_product(px, py) != pxy:
                return "phi(xy) != phi(x) phi(y)"
        return None


def _blocks(image):
    """A MatrixImage as refs block data: {(row, col): {exponent: scalar}}."""
    out = []
    for block in image.blocks:
        entries = {}
        for key, v in block.items():
            if hasattr(v, "coeffs"):  # Laurent polynomial entry
                entries[key] = {k: _pair(c) for k, c in v.coeffs}
            else:
                entries[key] = {0: _pair(v)}
        out.append(entries)
    return out


# -- cli_reports ----------------------------------------------------------------


@dataclass
class CliQuery:
    argv: list
    expect: object  # callable(result dict) -> None or failure text


def _check_analyze(spec: GraphSpec, n_cycles: int, tame: bool, result):
    sinks = spec.sinks()
    expected = {
        "no_exit": spec.no_exit,
        "tame": tame,
        "sinks": sinks,
        "regular_vertices": [v for v in spec.vertices if v not in sinks],
        "vertex_trace_space_dim": refs.vertex_constraint_dimension(spec),
        "faithful_trace_exists": {"Q,identity": spec.no_exit,
                                  "Qi,conjugation": spec.no_exit},
    }
    for key, want in expected.items():
        if result[key] != want:
            return f"analyze {key}: {result[key]!r}, expected {want!r}"
    if len(result["cycles"]) != n_cycles or len(set(result["cycles"])) != n_cycles:
        return f"analyze found {len(result['cycles'])} cycles, expected {n_cycles}"
    if spec.cycles is not None and set(result["cycles"]) != {"/".join(w) for w in spec.cycles}:
        return "analyze cycles differ from the planted ones"
    return None


def _check_classes(spec: GraphSpec, max_len: int, count: int, result):
    words = [tuple(w.split("/")) for w in result["cycle_classes"]]
    if len(set(words)) != count or len(words) != count:
        return f"classes found {len(words)}, expected {count}"
    if any(least_rotation(w) != w for w in words):
        return "classes returned a word that is not its least rotation"
    if result["vertex_classes"] != spec.vertices or result["max_len"] != max_len:
        return "classes vertex list or max_len differs"
    return None


def _check_decompose(sizes, result):
    sink_sizes, cycle_sizes = sizes
    got_sinks = [b["size"] for b in result["sink_blocks"]]
    got_cycles = {b["cycle"]: b["size"] for b in result["cycle_blocks"]}
    if got_sinks != sink_sizes:
        return f"sink block sizes {got_sinks}, expected {sink_sizes}"
    if got_cycles != cycle_sizes:
        return f"cycle block sizes {got_cycles}, expected {cycle_sizes}"
    blocks = result["sink_blocks"] + result["cycle_blocks"]
    if any(len(set(b["paths"])) != b["size"] for b in blocks):
        return "a block's path list does not match its size"
    return None


def _check_eval(values: TraceValues, terms, result):
    got = refs.parse_scalar(result["value"])
    want = values.value(terms)
    return None if got == want else f"eval {got}, class-value reference {want}"


def _check_sg(nonzero_classes, digest_key, result):
    if digest_key is not None:
        want = _seed_digests()[digest_key]
        got = short_hash(json.dumps(result, sort_keys=True))
        return None if got == want else f"{digest_key}: digest {got}, seed commit {want}"
    if "nonzero_class_count" in result:
        count = result["nonzero_class_count"]
    else:
        if result["is_minimal"] is not True:
            return "the canonical minimal trace was not reported minimal"
        count = len({c for c in result["delta"].values() if c is not None})
    return None if count == nonzero_classes else f"{count} classes, expected {nonzero_classes}"


class CliReports(Workload):
    """The `lpa` commands run in-process on files written during set-up.

    Every query parses its files and builds fresh contexts, as a CLI user's
    process would.  A round of 20 queries has one slow query (analyze K7
    or classes on a rose near 10^4 paths, in turn), four of 15-20 ms
    (analyze K6, classes rose2 --max-len 10, and twice classes K5
    --max-len 5) and fifteen fast ones on small and seeded inputs.  The
    fixed mix puts p90 inside the band of the two K5 queries, so it does
    not jump between query kinds.
    """

    name = "cli_reports"
    warmup = 20

    def __init__(self, seed, root):
        rng = random.Random(f"{seed}:inputs")
        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
        self.dir = Path(self._tmp.name)
        self.graphs = {}
        for n in range(4, 8):
            self._add_graph(f"K{n}", complete_digraph(n))
        for r in range(1, 5):
            self._add_graph(f"rose{r}", rose(r))
        self.no_exit = [self._add_graph(f"ne{i}", random_graph(rng, exits=False))
                        for i in range(12)]
        self.with_exit = [self._add_graph(f"ex{i}", random_graph(rng, exits=True))
                          for i in range(8)]
        self.eval_graphs = self.no_exit + ["rose2", "rose3"]
        self.specs = {}
        for name in self.eval_graphs:
            spec = self.graphs[name][1]
            field, involution = rng.choice(((lpa.QI, lpa.CONJUGATION), (lpa.Q, lpa.IDENTITY)))
            vertex = {"v": ZERO} if name.startswith("rose") else None
            values = trace_values(rng, spec, field, involution, vertex)
            path = self.dir / f"{name}.spec"
            path.write_text(values.text(), encoding="utf-8")
            self.specs[name] = (str(path), values)
        self.block_sizes = {}
        for name in self.no_exit + ["rose1"]:
            sinks, cycles = refs.block_sizes(self.graphs[name][1])
            words = ["/".join(w) for w in self.graphs[name][1].cycles]
            self.block_sizes[name] = (sinks, dict(zip(words, cycles)))
        self.cayley = []
        tables = [("mu", n, matrix_units(n)) for n in (2, 3, 4)]
        tables += [("cyclic", n, group_with_zero(cyclic(n))) for n in (3, 4, 5, 6)]
        tables += [("null", n, null_semigroup(n)) for n in rng.sample(range(5, 11), 3)]
        tables += [("symmetric", 3, group_with_zero(symmetric(3))), ("endo", 3, endo(3))]
        for family, n, table in tables:
            path = self.dir / f"{family}{n}.cayley"
            path.write_text(cayley_text(table, 0), encoding="utf-8")
            self.cayley.append((str(path), family, n, len(table)))

    def _add_graph(self, name, spec):
        path = self.dir / f"{name}.graph"
        path.write_text(spec.text(), encoding="utf-8")
        self.graphs[name] = (str(path), spec)
        return name

    def close(self):
        self._tmp.cleanup()

    def _analyze(self, name, n_cycles, tame):
        path, spec = self.graphs[name]
        return CliQuery(["analyze", path], lambda r: _check_analyze(spec, n_cycles, tame, r))

    def _analyze_complete(self, n):
        return self._analyze(f"K{n}", refs.complete_digraph_cycles(n), False)

    def _classes(self, name, max_len):
        path, spec = self.graphs[name]
        count = refs.rotation_classes(spec, max_len)
        return CliQuery(["classes", path, "--max-len", str(max_len)],
                        lambda r: _check_classes(spec, max_len, count, r))

    def _decompose(self, name):
        sizes = self.block_sizes[name]
        return CliQuery(["decompose", self.graphs[name][0]], lambda r: _check_decompose(sizes, r))

    def _eval(self, rng, name):
        path, spec = self.graphs[name]
        spec_path, values = self.specs[name]
        text, terms = random_element(rng, spec, values.field, terms=(3, 8), max_len=3)
        return CliQuery(["eval", path, text, "--spec", spec_path],
                        lambda r: _check_eval(values, terms, r))

    def _sg(self, action, cayley):
        path, family, n, size = cayley
        count = {"mu": 1, "cyclic": n, "null": size - 1,
                 "symmetric": refs.partitions(n)}.get(family)
        key = f"cli.sg.{action}.endo{n}" if family == "endo" else None
        return CliQuery(["sg", path, action], lambda r: _check_sg(count, key, r))

    def queries(self, rng):
        for round_no in itertools.count():
            if round_no % 2 == 0:
                slow = self._analyze_complete(7)
            else:
                slow = self._classes(*(("rose2", 12), ("rose3", 8))[round_no // 2 % 2])
            batch = [
                slow,
                self._analyze_complete(6),
                self._classes("rose2", 10),
                self._classes("K5", 5),
                self._classes("K5", 5),
                self._analyze_complete(4),
                self._analyze_complete(5),
                self._classes("rose1", 12),
                self._classes("K4", 5),
            ]
            for name in (rng.choice(self.no_exit), rng.choice(self.with_exit)):
                batch.append(self._analyze(name, len(self.graphs[name][1].cycles), True))
            batch += [self._decompose(rng.choice(self.no_exit + ["rose1"])) for _ in range(2)]
            batch += [self._eval(rng, rng.choice(self.eval_graphs)) for _ in range(3)]
            batch += [self._sg(a, rng.choice(self.cayley))
                      for a in ("classes", "minimal", "classes", "minimal")]
            rng.shuffle(batch)
            yield from batch

    def run(self, query):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lpa_cli.main(query.argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        return code, text, err.getvalue()

    def check(self, query, out):
        code, text, err = out
        if code != 0:
            return f"lpa {' '.join(query.argv)} exited {code}: {err.strip()}"
        return query.expect(json.loads(text)["result"])

    def digest(self, out):
        code, text, _ = out
        result = json.loads(text)["result"] if code == 0 else None
        return short_hash(json.dumps([code, result], sort_keys=True))


# -- semigroups -----------------------------------------------------------------
# Tables are lists of rows with the zero at index 0 unless relabeled.


def matrix_units(n):
    """Zero and e_ij (index 1 + i*n + j); e_ij e_kl = [j = k] e_il."""
    size = n * n + 1
    t = [[0] * size for _ in range(size)]
    for i, j, l in itertools.product(range(n), repeat=3):
        t[1 + i * n + j][1 + j * n + l] = 1 + i * n + l
    return t


def symmetric(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(n))] for b in perms] for a in perms]


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def group_with_zero(group):
    n = len(group)
    t = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            t[i + 1][j + 1] = group[i][j] + 1
    return t


def null_semigroup(size):
    return [[0] * size for _ in range(size)]


def endo(n):
    """Zero and all maps of {0..n-1}; f*g applies g, then f."""
    maps = list(itertools.product(range(n), repeat=n))
    index = {m: i + 1 for i, m in enumerate(maps)}
    t = [[0] * (len(maps) + 1) for _ in range(len(maps) + 1)]
    for f in maps:
        for g in maps:
            t[index[f]][index[g]] = index[tuple(f[g[x]] for x in range(n))]
    return t


def cayley_text(table, zero) -> str:
    rows = [" ".join(map(str, row)) for row in table]
    return f"n {len(table)} zero {zero}\n" + "\n".join(rows) + "\n"


@dataclass
class _Table:
    family: str
    n: int
    canon: list  # canonical table, zero at 0
    perm: list  # canonical index -> index in the text
    table: list  # the relabeled table
    text: str  # its Cayley file
    group: list | None = None  # the group table, for groups with zero
    conjugacy: list | None = None  # the group's conjugacy classes


@dataclass
class SgQuery:
    table: _Table
    elements: list  # [{index: Fraction}] in text indices
    expected: tuple  # commutator-span membership of each element
    pair: tuple  # (g, h), known to be equivalent


def sim_partition_digest(classes) -> str:
    return short_hash(repr(sorted(sorted(c) for c in classes)))


class SemigroupTables(Workload):
    """Cayley-table parsing and the semigroup-ring trace machinery.

    A round of 40 tables, in seeded order: endo4 and one null semigroup of
    96 or 128 elements (the slow tables); S5 with zero four times; endo3,
    S3 and S4 with zero four times each; matrix units for n = 4, 6, 8, 10
    three times each; cyclic groups C6-C20 with zero twice each.  The mix
    puts p90 in the middle of the S5 band.  Element indices are permuted
    with the seed, so each seed gives different table texts of the same
    structures.
    """

    name = "semigroup_tables"
    warmup = 40

    def __init__(self, seed, root=None):
        rng = random.Random(f"{seed}:inputs")

        def make(family, n, canon, group=None):
            perm = list(range(len(canon)))
            rng.shuffle(perm)
            relabeled = [[0] * len(canon) for _ in canon]
            for i, row in enumerate(canon):
                for j, k in enumerate(row):
                    relabeled[perm[i]][perm[j]] = perm[k]
            return _Table(family, n, canon, perm, relabeled, cayley_text(relabeled, perm[0]),
                          group, group and refs.conjugacy_classes(group))

        self.heavy = [make("endo", 4, endo(4))] + [
            make("null", n, null_semigroup(n)) for n in (96, 128)]
        s3, s4, s5 = (make("symmetric", n, group_with_zero(symmetric(n)), symmetric(n))
                      for n in (3, 4, 5))
        self.light = (
            [make("endo", 3, endo(3)), s3, s4] * 4
            + [s5] * 4
            + [make("mu", n, matrix_units(n)) for n in (4, 6, 8, 10)] * 3
            + [make("cyclic", n, group_with_zero(cyclic(n)), cyclic(n))
               for n in (6, 9, 12, 16, 20)] * 2
        )

    def queries(self, rng):
        for round_no in itertools.count():
            batch = [self.heavy[0], self.heavy[1 + round_no % 2]] + self.light
            rng.shuffle(batch)
            for table in batch:
                yield self._query(rng, table)

    def _query(self, rng, t: _Table) -> SgQuery:
        canon, size = t.canon, len(t.canon)
        nonzero = range(1, size)
        if t.family == "mu":
            n = t.n
            in_class = [1 + i * n + i for i in range(n)]  # the diagonal units
        else:
            in_class = list(nonzero)
        commutators = {}
        for _ in range(3):
            a, b, c = rng.choice(nonzero), rng.choice(nonzero), Fraction(rng.randint(1, 5))
            commutators[canon[a][b]] = commutators.get(canon[a][b], 0) + c
            commutators[canon[b][a]] = commutators.get(canon[b][a], 0) - c
        commutators.pop(0, None)
        shifted = dict(commutators)
        g = rng.choice(in_class)
        shifted[g] = shifted.get(g, 0) + Fraction(rng.randint(1, 5))
        elements = [commutators, shifted]
        expected = [True, False]
        if t.family in ("mu", "symmetric", "cyclic"):
            x = {k: Fraction(rng.randint(-3, 3)) for k in rng.sample(nonzero, min(4, size - 1))}
            if rng.random() < 0.5:  # balance: a sum of commutators
                if t.family == "mu":
                    x[1] = x.get(1, 0) - sum(x.get(d, 0) for d in in_class)
                else:
                    for cls in t.conjugacy:
                        first = min(cls) + 1
                        x[first] = x.get(first, 0) - sum(x.get(k + 1, 0) for k in cls)
            elements.append(x)
            if t.family == "mu":
                expected.append(sum(x.get(d, 0) for d in in_class) == 0)
            else:
                group_coeffs = {k - 1: c for k, c in x.items()}
                expected.append(refs.in_group_commutator_span(t.conjugacy, group_coeffs))
        pair = self._equivalent_pair(rng, t)
        p = t.perm
        return SgQuery(
            t,
            [{p[k]: c for k, c in x.items() if c} for x in elements],
            tuple(expected),
            (p[pair[0]], p[pair[1]]),
        )

    @staticmethod
    def _equivalent_pair(rng, t: _Table):
        """(g, h) with g ~ h by construction, in canonical indices."""
        size = len(t.canon)
        if t.family == "mu":
            i, j = rng.randrange(t.n), rng.randrange(t.n)
            return 1 + i * t.n + i, 1 + j * t.n + j  # e_ii = e_ij e_ji, e_ji e_ij = e_jj
        if t.group is not None:
            g, k = rng.randrange(len(t.group)), rng.randrange(len(t.group))
            k_inv = refs.group_inverse(t.group, k)
            return g + 1, t.group[t.group[k][g]][k_inv] + 1  # g ~ k g k^-1
        if t.family == "endo":
            a, b = rng.randrange(1, size), rng.randrange(1, size)
            return t.canon[a][b], t.canon[b][a]
        g = rng.randrange(1, size)
        return g, g

    def run(self, q: SgQuery):
        G = lpa.parse_cayley(q.table.text)
        part = lpa.sim_classes(G)
        delta = lpa.minimal_trace(G)
        spans = tuple(lpa.in_commutator_span(G, lpa.sg_element(G, x)) for x in q.elements)
        minimal = lpa.is_minimal_sg_trace(G, delta)
        chain = lpa.sim_witness_chain(G, *q.pair)
        return part.classes, spans, minimal, chain

    def check(self, q: SgQuery, out):
        classes, spans, minimal, chain = out
        t = q.table
        nonzero = len(classes) - 1
        if t.family == "endo":
            inverse = {new: old for old, new in enumerate(t.perm)}
            got = sim_partition_digest([[inverse[i] for i in c] for c in classes])
            want = _seed_digests()[f"semigroups.endo{t.n}"]
            if got != want:
                return f"endo{t.n} classes: digest {got}, seed commit {want}"
        else:
            want = {"mu": 1, "cyclic": t.n, "null": len(t.canon) - 1,
                    "symmetric": refs.partitions(t.n)}[t.family]
            if nonzero != want:
                return f"{t.family}{t.n}: {nonzero} nonzero classes, expected {want}"
        if spans != q.expected:
            return f"{t.family}{t.n}: commutator-span answers {spans}, expected {q.expected}"
        if minimal is not True:
            return f"{t.family}{t.n}: the canonical minimal trace was not reported minimal"
        if chain is None or not refs.chain_is_valid(t.table, *q.pair, chain):
            return f"{t.family}{t.n}: witness chain {chain} does not replay"
        return None


WORKLOADS = {w.name: w for w in (AlgebraSession, CliReports, SemigroupTables)}
