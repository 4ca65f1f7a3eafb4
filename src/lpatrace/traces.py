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

from collections import namedtuple

from .errors import ParseError, PreconditionError, content_lines
from .gis import (
    CycleWord,
    CycleWordStar,
    VertexClass,
    ZERO_CLASS,
    approx_canonical,
    classify_eq,
)
from .graphs import (
    Graph,
    _exit_error,
    _nontrivial_sccs,
    cycle_with_exit_witness,
    edge_path,
    regular_vertices,
    strongly_connected_components,
)
from .linalg import nullspace
from .path_algebras import COHN, LEAVITT, AlgebraElement
from .scalars import (
    CONJUGATION,
    FIELDS,
    FieldElem,
    FreeVector,
    IDENTITY,
    INVOLUTIONS,
    Q,
    QI,
    _coerce,
    add_terms,
    check_involution,
    fe_zero,
    format_scalar,
    is_nonnegative,
    is_positive_nonzero,
    parse_scalar,
    require_positive_definite,
)


class TraceSpec(namedtuple("TraceSpec", "field involution values")):
    """Values of a linear trace on classes.

    `values` maps `VertexClass`, `CycleWord` and `CycleWordStar` (edge words
    in least rotation) to nonzero field elements; every other class has
    value zero.  The hash reads the field and involution only.
    """

    __slots__ = ()

    def __hash__(self):
        return hash((self.field, self.involution))

    def class_value(self, cls) -> FieldElem:
        value = self.values.get(cls)
        return fe_zero(self.field) if value is None else value


def _least_word(g: Graph, word: tuple) -> tuple:
    """The least rotation of a closed edge word, validated in `g`."""
    return approx_canonical(g, edge_path(g, word)).edges


def trace_spec(g: Graph, field=Q, involution=IDENTITY, vertex_values=None,
               cycle_values=None, cycle_star_values=None) -> TraceSpec:
    """Build a spec, canonicalizing closed-word keys and dropping zeros."""
    check_involution(field, involution)

    values = {}
    for v, c in (vertex_values or {}).items():
        if not g.is_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
        values[VertexClass(v)] = _coerce(c, field)
    for kind, table in ((CycleWord, cycle_values), (CycleWordStar, cycle_star_values)):
        for word, c in (table or {}).items():
            key = kind(_least_word(g, tuple(word)))
            name = f"rotation class {'/'.join(key.edges)}"
            _put_once(values, key, _coerce(c, field), name)
    return _nonzero_spec(field, involution, values)


def _put_once(values, key, value, name):
    """Set values[key], unless it already holds another value."""
    if values.setdefault(key, value) != value:
        raise ValueError(f"conflicting values for {name}")


def _nonzero_spec(field, involution, values) -> TraceSpec:
    return TraceSpec(field, involution, {k: c for k, c in values.items() if c})


# violations: (vertex, delta(v), sum over out-edges of delta(r(e)))
class SpecValidation(namedtuple("SpecValidation", "ok violations")):
    __slots__ = ()

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
    values = {c.v: x for c, x in spec.values.items() if type(c) is VertexClass}
    zero = fe_zero(spec.field)
    bad = []
    for v in regular_vertices(g):
        lhs = values.get(v, zero)
        rhs = _out_range_sum(g, values, v, zero)
        if lhs != rhs:
            bad.append((v, lhs, rhs))
    return SpecValidation(not bad, tuple(bad))


def _out_range_sum(g: Graph, values: dict, v: str, zero: FieldElem) -> FieldElem:
    """Right side of v's constraint: values[r(e)] summed over e leaving v."""
    total = zero
    for eid in g.out_edges[v]:
        total = total + values.get(g.edge_dst[eid], zero)
    return total


class VertexSolutionSpace(namedtuple("VertexSolutionSpace", "field vertices basis")):
    """Basis of vertex-value assignments satisfying the vertex constraint.

    Each basis entry is a tuple of FieldElem aligned with `vertices`.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def assignments(self):
        return [dict(zip(self.vertices, vec)) for vec in self.basis]


def vertex_trace_space(g: Graph, field=Q) -> VertexSolutionSpace:
    """Exact solution space of the vertex constraints over the field.

    The constraint rows are integral whatever the field: 1 at v and -1 at
    r(e) for each edge e leaving v, so `nullspace` eliminates them in ints
    and reaches the field only for the basis.
    """
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    # a loop cancels v's own entry, and parallel edges add up
    rows = [add_terms({index[v]: 1}, (
        (index[g.edge_dst[eid]], -1) for eid in g.out_edges[v]
    )) for v in regular_vertices(g)]
    basis = nullspace(rows, len(verts), field)
    return VertexSolutionSpace(field, verts, tuple(tuple(vec) for vec in basis))


def trace_eval(g: Graph, spec: TraceSpec, x: AlgebraElement) -> FieldElem:
    """Evaluate the induced trace on an algebra element.

    In Leavitt mode the spec must satisfy the vertex constraint (otherwise
    the functional is not well defined on the quotient).  Every term is
    classified, but only a term whose class has a value in `spec.values`
    costs a product and a sum: the zero class and unvalued classes add 0.
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
    acc, values = fe_zero(spec.field), spec.values
    for mon, c in x.terms.items():
        value = values.get(classify_eq(g, mon))
        if value is not None:
            acc = acc + c * value
    return acc


def minimal_trace_cohn(g: Graph, x: AlgebraElement) -> FreeVector:
    """The canonical minimal trace on the Cohn algebra, into class unit vectors.

    Vanishes exactly on the commutator span of the Cohn algebra; minimality
    on the Leavitt quotient is not decided here.
    """
    if x.algebra.mode != COHN:
        raise PreconditionError("minimal_trace_cohn expects a Cohn-mode element")
    acc = add_terms({}, ((classify_eq(g, mon), c) for mon, c in x.terms.items()))
    acc.pop(ZERO_CLASS, None)
    return FreeVector(None, acc)


class MinimalityVerdict(namedtuple(
    "MinimalityVerdict", "minimal classes relative_to_supplied_list"
)):
    __slots__ = ()

    def __bool__(self):
        return self.minimal


def is_minimal_cohn(g: Graph, spec: TraceSpec, classes=None) -> MinimalityVerdict:
    """Minimality of the spec's trace on the Cohn algebra.

    Decidable outright for acyclic graphs, where the nonzero classes are
    exactly the vertex classes.  For cyclic graphs a finite class list must
    be supplied, and the verdict is relative to that list.
    """
    if classes is None:
        if _nontrivial_sccs(g):
            raise PreconditionError(
                "graph has cycles: supply the class list to test against"
            )
        classes = tuple(VertexClass(v) for v in g.vertices)
        relative = False
    else:
        classes = tuple(classes)
        relative = True
    # the values form one column, whose rank is at most 1: it equals the
    # number of classes only for no class, or one class with a nonzero value
    minimal = not classes or (len(classes) == 1 and bool(spec.class_value(classes[0])))
    return MinimalityVerdict(minimal, classes, relative)


# ---------------------------------------------------------------------------
# Positivity and faithfulness
# ---------------------------------------------------------------------------


class ScreenViolation(namedtuple("ScreenViolation", "condition vertices message")):
    __slots__ = ()

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
    inv = spec.involution
    require_positive_definite(spec.field, inv)
    zero = fe_zero(spec.field)
    values = {c.v: x for c, x in spec.values.items() if type(c) is VertexClass}
    t = {v: values.get(v, zero) for v in g.vertices}
    violations = []
    for v in g.vertices:
        if not is_nonnegative(t[v], inv):
            violations.append(ScreenViolation(
                1, (v,),
                f"t({v}) = {format_scalar(t[v])} is not a "
                f"nonnegative rational",
            ))
    # t(v) - t(w) in Q>=0 is transitive along paths, so it holds on every
    # reachable pair exactly when it holds on every edge: only a failing
    # edge sends the screen through the O(V^2) pair walk
    if not all(
        is_nonnegative(t[src] - t[g.edge_dst[eid]], inv) for eid, src in g.edge_src.items()
    ):
        position = {v: i for i, v in enumerate(g.vertices)}
        for v in g.vertices:
            for w in sorted(_reachable(g, v), key=position.__getitem__):
                if not is_nonnegative(t[v] - t[w], inv):  # w == v passes: t(v) - t(v) = 0
                    violations.append(ScreenViolation(
                        2, (v, w),
                        f"t({v}) < t({w}) although {w} is reachable from {v}",
                    ))
    for v in regular_vertices(g):
        if not is_nonnegative(t[v] - _out_range_sum(g, t, v, zero), inv):
            violations.append(ScreenViolation(
                3, (v,),
                f"t({v}) is less than the sum over the ranges of its "
                f"outgoing edges",
            ))
    for v in g.vertices:
        if not is_positive_nonzero(t[v], inv):
            violations.append(ScreenViolation(
                4, (v,),
                f"t({v}) = {format_scalar(t[v])} is not "
                f"strictly positive (faithfulness candidacy)",
            ))
    return violations


class FaithfulVerdict(namedtuple(
    "FaithfulVerdict", "exists reason witness_cycle witness_exit",
    defaults=(None, None),
)):
    __slots__ = ()

    def __bool__(self):
        return self.exists


def faithful_trace_exists(g: Graph, field=Q, involution=IDENTITY) -> FaithfulVerdict:
    """Existence of a faithful linear trace on the Leavitt algebra.

    For a finite graph over a positive definite involutive field this is
    equivalent to no cycle having an exit.  Non-positive-definite
    configurations are refused: the equivalence genuinely fails there.
    """
    require_positive_definite(field, involution)
    witness = cycle_with_exit_witness(g)
    if witness is None:
        return FaithfulVerdict(True, "no cycle has an exit")
    cyc, exit_edge = witness
    return FaithfulVerdict(
        False,
        f"cycle {'/'.join(cyc.edges)} has exit {exit_edge}",
        cyc,
        exit_edge,
    )


def build_faithful_trace(g: Graph, field=QI, involution=CONJUGATION) -> TraceSpec:
    """A faithful trace on the Leavitt algebra of a no-exit finite graph.

    The pulled-back trace of the matrix decomposition (`structure`): the
    value at a vertex v is N(v), the number of basis paths starting there,
    and all cycle classes get zero.  N(v) is 1 at a sink and at a vertex on
    a cycle, and otherwise the sum of N(r(e)) over the edges e leaving v;
    one SCC pass, whose components come ranges first, counts it in
    O(V + E), with no enumeration and no work limit.  A vertex on a cycle
    with two or more out-edges means an exit: then `PreconditionError`
    names a cycle with an exit, in `decompose`'s words.
    """
    require_positive_definite(field, involution)
    count = {}
    for comp in strongly_connected_components(g):
        for v in comp:
            ranges = [g.edge_dst[e] for e in g.out_edges[v]]
            if len(comp) > 1 or v in ranges:  # v lies on a cycle
                if len(ranges) > 1:
                    raise _exit_error(g)
                count[v] = 1
            else:
                count[v] = sum(count[w] for w in ranges) or 1
    return trace_spec(g, field, involution, {v: count[v] for v in g.vertices})


# ---------------------------------------------------------------------------
# Trace-spec files
# ---------------------------------------------------------------------------


def parse_trace_spec(text: str, g: Graph) -> TraceSpec:
    """Parse the line-based spec format.

    `field Q|Qi`, `involution identity|conjugation`, `vertex <id> <scalar>`,
    `cycle <edge-path> <scalar> [<star-scalar>]`; `#` starts a comment.
    A `field` or `involution` line holds for the whole file, wherever it
    stands: the last well-formed one wins.  Every line is then checked once,
    in order, so the first faulty line is the one reported.
    """
    settings = {"field": FIELDS, "involution": INVOLUTIONS}
    chosen = {"field": Q, "involution": IDENTITY}
    lines = [(lineno, line.split()) for lineno, line in content_lines(text)]
    for _, parts in lines:
        if len(parts) == 2 and parts[1] in settings.get(parts[0], ()):
            chosen[parts[0]] = parts[1]
    field = chosen["field"]
    values = {}
    for lineno, (kind, *args) in lines:
        try:
            if kind in settings:
                if len(args) != 1 or args[0] not in settings[kind]:
                    raise ValueError(f"expected `{kind} {'|'.join(settings[kind])}`")
            elif kind == "vertex":
                if len(args) != 2:
                    raise ValueError("expected `vertex <id> <scalar>`")
                v, val = args
                if not g.is_vertex(v):
                    raise ValueError(f"unknown vertex {v!r}")
                value = parse_scalar(val, field)
                _put_once(values, VertexClass(v), value, f"vertex {v!r}")
            elif kind == "cycle":
                if len(args) not in (2, 3):
                    raise ValueError(
                        "expected `cycle <edge-path> <scalar> [<star-scalar>]`"
                    )
                value, *star = (parse_scalar(x, field) for x in args[1:])
                word = _least_word(g, tuple(args[0].split("/")))
                name = f"rotation class {'/'.join(word)}"
                _put_once(values, CycleWord(word), value, name)
                for star_value in star:
                    _put_once(values, CycleWordStar(word), star_value, f"starred {name}")
            else:
                raise ValueError(f"unknown declaration {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return _nonzero_spec(field, chosen["involution"], values)
