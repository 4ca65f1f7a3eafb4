"""Trace functionals on Cohn and Leavitt path algebras.

A trace specification assigns field values to vertex classes and to the
rotation classes of closed edge words (plain and starred); every other
monomial class evaluates to zero.  Keying values on classes makes the
induced functional automatically central on the graph inverse semigroup;
the one extra condition needed for it to descend to the Leavitt quotient is
the vertex constraint

    delta(v) = sum of delta(r(e)) over the edges e leaving v

at every regular vertex v, which `validate_trace_spec` checks and
`vertex_trace_space` solves exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ParseError, PreconditionError
from .gis import (
    CycleWord,
    CycleWordStar,
    VertexClass,
    ZeroClass,
    approx_canonical,
    classify_eq,
)
from .graphs import (
    CycleRep,
    Graph,
    cycle_vertices,
    cycle_with_exit_witness,
    edge_path,
    is_no_exit,
    regular_vertices,
)
from .linalg import nullspace, rank as _rank
from .path_algebras import COHN, LEAVITT, AlgebraElement
from .scalars import (
    CONJUGATION,
    FieldElem,
    IDENTITY,
    Q,
    QI,
    check_involution,
    fe,
    fe_one,
    fe_zero,
    format_scalar,
    is_nonnegative,
    is_positive_nonzero,
    parse_scalar,
    require_positive_definite,
)
from .semigroups import (
    CentralMap,
    FiniteSemigroup,
    FreeVector,
    central_map,
    group_identity,
)
from .structure import decompose


@dataclass(frozen=True)
class TraceSpec:
    """Values of a linear trace on class representatives.

    `cycle_values` and `cycle_star_values` are keyed by canonical rotations
    of closed edge words; absent keys mean zero.  The sorted tuples give
    equality and `repr`; `class_value` reads one dict, keyed by
    `VertexClass`, `CycleWord` and `CycleWordStar`, built at construction.
    """

    field: str
    involution: str
    vertex_values: tuple       # sorted (vertex, FieldElem)
    cycle_values: tuple        # sorted (edge word, FieldElem), no zeros
    cycle_star_values: tuple   # sorted (edge word, FieldElem), no zeros
    _by_class: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_class = {VertexClass(v): c for v, c in self.vertex_values}
        by_class.update((CycleWord(w), c) for w, c in self.cycle_values)
        by_class.update((CycleWordStar(w), c) for w, c in self.cycle_star_values)
        object.__setattr__(self, "_by_class", by_class)

    def class_value(self, cls) -> FieldElem:
        value = self._by_class.get(cls)
        return fe_zero(self.field) if value is None else value


def trace_spec(g: Graph, field=Q, involution=IDENTITY, vertex_values=None,
               cycle_values=None, cycle_star_values=None) -> TraceSpec:
    """Build a spec, canonicalizing closed-word keys and dropping zeros."""
    check_involution(field, involution)

    def coerce(c):
        return c if isinstance(c, FieldElem) else fe(c, 0, field)

    verts = {}
    for v, c in (vertex_values or {}).items():
        if not g.is_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
        verts[v] = coerce(c)

    def canon_table(table):
        out = {}
        for word, c in (table or {}).items():
            path = edge_path(g, tuple(word))
            canonical = approx_canonical(g, path).edges
            c = coerce(c)
            if canonical in out and out[canonical] != c:
                raise ValueError(
                    f"conflicting values for rotation class {'/'.join(canonical)}"
                )
            if c:
                out[canonical] = c
        return tuple(sorted(out.items()))

    return TraceSpec(
        field,
        involution,
        tuple(sorted(verts.items())),
        canon_table(cycle_values),
        canon_table(cycle_star_values),
    )


@dataclass(frozen=True)
class SpecValidation:
    ok: bool
    violations: tuple  # (vertex, delta(v), sum over out-edges of delta(r(e)))

    def __bool__(self):
        return self.ok

    def messages(self):
        return [
            f"vertex {v!r}: delta(v) = {format_scalar(lhs)} but the outgoing "
            f"edge ranges sum to {format_scalar(rhs)}"
            for v, lhs, rhs in self.violations
        ]


def validate_trace_spec(g: Graph, spec: TraceSpec) -> SpecValidation:
    """Check the vertex constraint at every regular vertex."""
    values = dict(spec.vertex_values)
    zero = fe_zero(spec.field)
    bad = []
    for v in regular_vertices(g):
        lhs = values.get(v, zero)
        rhs = zero
        for eid in g.out_edges[v]:
            rhs = rhs + values.get(g.edge_dst[eid], zero)
        if lhs != rhs:
            bad.append((v, lhs, rhs))
    return SpecValidation(not bad, tuple(bad))


@dataclass(frozen=True)
class VertexSolutionSpace:
    """Basis of vertex-value assignments satisfying the vertex constraint."""

    field: str
    vertices: tuple
    basis: tuple  # each entry: tuple of FieldElem aligned with `vertices`

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def assignments(self):
        return [dict(zip(self.vertices, vec)) for vec in self.basis]


def vertex_trace_space(g: Graph, field=Q) -> VertexSolutionSpace:
    """Exact solution space of the vertex constraints over the field."""
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    zero, one = fe_zero(field), fe_one(field)
    rows = []
    for v in regular_vertices(g):
        row = [zero] * len(verts)
        row[index[v]] = row[index[v]] + one
        for eid in g.out_edges[v]:
            w = index[g.edge_dst[eid]]
            row[w] = row[w] - one
        rows.append(row)
    basis = nullspace(rows, len(verts), field)
    return VertexSolutionSpace(field, verts, tuple(tuple(vec) for vec in basis))


def trace_eval(g: Graph, spec: TraceSpec, x: AlgebraElement) -> FieldElem:
    """Evaluate the induced trace on an algebra element.

    In Leavitt mode the spec must satisfy the vertex constraint (otherwise
    the functional is not well defined on the quotient).
    """
    alg = x.algebra
    if alg.graph is not g:
        raise ValueError("element is over a different graph")
    if alg.field != spec.field:
        raise ValueError(f"element field {alg.field} != spec field {spec.field}")
    if alg.mode == LEAVITT:
        check = validate_trace_spec(g, spec)
        if not check:
            raise PreconditionError(
                "spec does not satisfy the vertex constraint: "
                + "; ".join(check.messages())
            )
    acc = fe_zero(spec.field)
    for mon, c in x.terms.items():
        acc = acc + c * spec.class_value(classify_eq(g, mon))
    return acc


def minimal_trace_cohn(g: Graph, x: AlgebraElement) -> FreeVector:
    """The canonical minimal trace on the Cohn algebra, into class unit vectors.

    Vanishes exactly on the commutator span of the Cohn algebra; minimality
    on the Leavitt quotient is not decided here.
    """
    if x.algebra.mode != COHN:
        raise PreconditionError("minimal_trace_cohn expects a Cohn-mode element")
    acc = {}
    for mon, c in x.terms.items():
        cls = classify_eq(g, mon)
        if isinstance(cls, ZeroClass):
            continue
        acc[cls] = acc[cls] + c if cls in acc else c
    return FreeVector.make(acc)


@dataclass(frozen=True)
class MinimalityVerdict:
    minimal: bool
    classes: tuple
    relative_to_supplied_list: bool

    def __bool__(self):
        return self.minimal


def is_minimal_cohn(g: Graph, spec: TraceSpec, classes=None) -> MinimalityVerdict:
    """Minimality of the spec's trace on the Cohn algebra.

    Decidable outright for acyclic graphs, where the nonzero classes are
    exactly the vertex classes.  For cyclic graphs a finite class list must
    be supplied, and the verdict is relative to that list.
    """
    if classes is None:
        if cycle_vertices(g):
            raise PreconditionError(
                "graph has cycles: supply the class list to test against"
            )
        classes = tuple(VertexClass(v) for v in g.vertices)
        relative = False
    else:
        classes = tuple(classes)
        relative = True
    rows = [{0: spec.class_value(cls)} for cls in classes]
    minimal = _rank(rows, spec.field) == len(classes)
    return MinimalityVerdict(minimal, classes, relative)


# ---------------------------------------------------------------------------
# Positivity and faithfulness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScreenViolation:
    condition: int
    vertices: tuple
    message: str

    def __repr__(self):
        return f"ScreenViolation({self.condition}, {self.message})"


def _reachable(g: Graph, start: str) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for eid in g.out_edges[v]:
            w = g.edge_dst[eid]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def positivity_screen(g: Graph, spec: TraceSpec):
    """Necessary conditions for positivity (1-3) and faithfulness (4).

    (1) every vertex value is a nonnegative rational; (2) values are
    monotone along reachability; (3) a vertex value dominates the sum over
    its outgoing edge ranges; (4) every vertex value is strictly positive.
    The screen is necessary but not sufficient: it ignores cycle-class
    values entirely.
    """
    require_positive_definite(spec.field, spec.involution)
    zero = fe_zero(spec.field)
    values = dict(spec.vertex_values)
    t = {v: values.get(v, zero) for v in g.vertices}
    violations = []
    for v in g.vertices:
        if not is_nonnegative(t[v], spec.involution):
            violations.append(ScreenViolation(
                1, (v,),
                f"t({v}) = {format_scalar(t[v])} is not a "
                f"nonnegative rational",
            ))
    position = {v: i for i, v in enumerate(g.vertices)}
    for v in g.vertices:
        for w in sorted(_reachable(g, v), key=position.__getitem__):
            if w == v:
                continue
            diff = t[v] - t[w]
            if not (diff.im == 0 and diff.re >= 0):
                violations.append(ScreenViolation(
                    2, (v, w),
                    f"t({v}) < t({w}) although {w} is reachable from {v}",
                ))
    for v in regular_vertices(g):
        total = zero
        for eid in g.out_edges[v]:
            total = total + t[g.edge_dst[eid]]
        diff = t[v] - total
        if not (diff.im == 0 and diff.re >= 0):
            violations.append(ScreenViolation(
                3, (v,),
                f"t({v}) is less than the sum over the ranges of its "
                f"outgoing edges",
            ))
    for v in g.vertices:
        if not is_positive_nonzero(t[v], spec.involution):
            violations.append(ScreenViolation(
                4, (v,),
                f"t({v}) = {format_scalar(t[v])} is not "
                f"strictly positive (faithfulness candidacy)",
            ))
    return violations


@dataclass(frozen=True)
class FaithfulVerdict:
    exists: bool
    reason: str
    witness_cycle: CycleRep | None = None
    witness_exit: str | None = None

    def __bool__(self):
        return self.exists


def faithful_trace_exists(g: Graph, field=Q, involution=IDENTITY) -> FaithfulVerdict:
    """Existence of a faithful linear trace on the Leavitt algebra.

    For a finite graph over a positive definite involutive field this is
    equivalent to no cycle having an exit.  Non-positive-definite
    configurations are refused: the equivalence genuinely fails there.
    """
    require_positive_definite(field, involution)
    if is_no_exit(g):
        return FaithfulVerdict(True, "no cycle has an exit")
    cyc, exit_edge = cycle_with_exit_witness(g)
    return FaithfulVerdict(
        False,
        f"cycle {'/'.join(cyc.edges)} has exit {exit_edge}",
        cyc,
        exit_edge,
    )


def build_faithful_trace(g: Graph, field=QI, involution=CONJUGATION) -> TraceSpec:
    """A faithful trace on the Leavitt algebra of a no-exit finite graph.

    Realized through the matrix decomposition: the value at a vertex counts
    the decomposition basis paths starting there (paths into sinks, plus
    cycle-free paths into cycle bases), and all cycle classes get zero.
    The result evaluates identically to the pulled-back block trace.
    """
    verdict = faithful_trace_exists(g, field, involution)
    if not verdict:
        raise PreconditionError(f"no faithful trace exists: {verdict.reason}")
    dec = decompose(g)
    counts = {v: 0 for v in g.vertices}
    for block in dec.blocks:
        for p in block.paths:
            counts[p.src] += 1
    spec = trace_spec(
        g, field, involution,
        vertex_values={v: fe(c, 0, field) for v, c in counts.items()},
    )
    if not validate_trace_spec(g, spec):
        raise PreconditionError(
            "block path counts do not satisfy the vertex constraint"
        )
    return spec


# ---------------------------------------------------------------------------
# Group-ring traces
# ---------------------------------------------------------------------------


def kaplansky_trace(G: FiniteSemigroup, field=Q) -> CentralMap:
    """delta(identity) = 1, zero elsewhere."""
    e = group_identity(G)
    one, zero = fe_one(field), fe_zero(field)
    values = tuple(one if i == e else zero for i in range(G.size))
    return central_map(G, values, field)


def augmentation_trace(G: FiniteSemigroup, field=Q) -> CentralMap:
    """delta = 1 on every nonzero element."""
    group_identity(G)
    one, zero = fe_one(field), fe_zero(field)
    values = tuple(zero if i == G.zero else one for i in range(G.size))
    return central_map(G, values, field)


# ---------------------------------------------------------------------------
# Trace-spec files
# ---------------------------------------------------------------------------


def parse_trace_spec(text: str, g: Graph) -> TraceSpec:
    """Parse the line-based spec format.

    `field Q|Qi`, `involution identity|conjugation`, `vertex <id> <scalar>`,
    `cycle <edge-path> <scalar> [<star-scalar>]`; `#` starts a comment.
    """
    field = Q
    involution = IDENTITY
    vertex_values = {}
    cycle_values = {}
    star_values = {}
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "field":
            if len(parts) != 2 or parts[1] not in (Q, QI):
                raise ParseError("expected `field Q|Qi`", lineno)
            field = parts[1]
        elif kind == "involution":
            if len(parts) != 2 or parts[1] not in (IDENTITY, CONJUGATION):
                raise ParseError(
                    "expected `involution identity|conjugation`", lineno
                )
            involution = parts[1]
        elif kind == "vertex":
            if len(parts) != 3:
                raise ParseError("expected `vertex <id> <scalar>`", lineno)
            if not g.is_vertex(parts[1]):
                raise ParseError(f"unknown vertex {parts[1]!r}", lineno)
            pending.append(("vertex", parts[1], parts[2], None, lineno))
        elif kind == "cycle":
            if len(parts) not in (3, 4):
                raise ParseError(
                    "expected `cycle <edge-path> <scalar> [<star-scalar>]`",
                    lineno,
                )
            star = parts[3] if len(parts) == 4 else None
            pending.append(("cycle", parts[1], parts[2], star, lineno))
        else:
            raise ParseError(f"unknown declaration {kind!r}", lineno)
    for kind, key, val, star, lineno in pending:
        try:
            value = parse_scalar(val, field)
            star_value = parse_scalar(star, field) if star is not None else None
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
        if kind == "vertex":
            _put_once(vertex_values, key, value, f"vertex {key!r}", lineno)
        else:
            word = tuple(key.split("/"))
            try:
                path = edge_path(g, word)
                canonical = approx_canonical(g, path).edges
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            name = f"rotation class {'/'.join(canonical)}"
            _put_once(cycle_values, canonical, value, name, lineno)
            if star_value is not None:
                _put_once(star_values, canonical, star_value, f"starred {name}", lineno)
    try:
        return trace_spec(
            g, field, involution,
            vertex_values=vertex_values,
            cycle_values=cycle_values,
            cycle_star_values=star_values,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _put_once(table, key, value, name, lineno):
    if table.setdefault(key, value) != value:
        raise ParseError(f"conflicting values for {name}", lineno)
