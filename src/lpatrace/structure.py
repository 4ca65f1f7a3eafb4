"""Matrix-block decomposition of the Leavitt algebra of a no-exit graph.

A finite no-exit graph splits its Leavitt path algebra into one full matrix
algebra over the field per sink (indexed by the paths into that sink) and
one matrix algebra over Laurent polynomials per cycle (indexed by the paths
into the cycle's base vertex that avoid the full cycle word).

The isomorphism sends p_j p_l* to the matrix unit E_jl of its sink block
and r_j c^k r_l* to x^k E_jl of its cycle block.  Arbitrary monomials are
resolved into these basis monomials by pushing their common range forward:
a monomial ending at an off-cycle regular vertex expands over that vertex's
outgoing edges, one ending on a cycle rolls forward to the base and then
strips full copies of the cycle word into the exponent.
"""

from __future__ import annotations

from collections import namedtuple

from . import graphs
from .errors import PreconditionError
from .gis import MonPair
from .graphs import (
    Graph,
    PathSeq,
    cycle_with_exit_witness,
    cycles,
    format_path,
    paths_into,
    sinks,
)
from .path_algebras import LEAVITT, AlgebraElement, PathAlgebra
from .scalars import (
    FieldElem,
    LaurentPoly,
    SparseTerms,
    add_terms,
    fe_zero,
    field_star,
    laurent_star,
    require_positive_definite,
)


class SinkBlock(namedtuple("SinkBlock", "sink paths")):
    """A sink and all paths ending at it, (length, word)-sorted."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.paths)


class CycleBlock(namedtuple("CycleBlock", "cycle paths")):
    """A cycle, closed and in least rotation (its source is the base), and
    the cycle-free paths ending at the base, (length, word)-sorted."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.paths)


class Decomposition:
    """Block data for a no-exit graph, with the monomial resolution cache."""

    def __init__(self, g: Graph, sink_blocks, cycle_blocks):
        self.graph = g
        self.sink_blocks = tuple(sink_blocks)
        self.cycle_blocks = tuple(cycle_blocks)
        self.blocks = self.sink_blocks + self.cycle_blocks
        self._index = [
            {p: i for i, p in enumerate(block.paths)} for block in self.blocks
        ]
        self._sink_block_of = {
            b.sink: i for i, b in enumerate(self.sink_blocks)
        }
        offset = len(self.sink_blocks)
        self._cycle_block_of = {}
        for i, block in enumerate(self.cycle_blocks):
            for eid in block.cycle.edges:
                self._cycle_block_of[g.edge_src[eid]] = offset + i
        self._expand_cache = {}

    def is_cycle_block(self, b: int) -> bool:
        return b >= len(self.sink_blocks)

    def block_sizes(self):
        return tuple(block.size for block in self.blocks)

    # -- monomial resolution -------------------------------------------------

    def expand_monomial(self, mon: MonPair):
        """Resolve p q* into basis monomials: a tuple of (block, j, l, k).

        Every monomial met on the way is cached.  The expansion over the
        out-edges of off-cycle regular vertices is walked with an explicit
        stack, children before parents, so a long path to a sink or cycle
        cannot exhaust the interpreter's recursion limit.
        """
        cache = self._expand_cache
        cached = cache.get(mon)
        if cached is not None:
            return cached
        g = self.graph
        stack = [(mon, None)]  # (monomial, its children once expanded)
        while stack:
            top, children = stack.pop()
            if children is not None:
                cache[top] = tuple(t for child in children for t in cache[child])
                continue
            if top in cache:
                continue
            p, q = top.p, top.q
            w = p.dst
            if w in self._sink_block_of:
                b = self._sink_block_of[w]
                idx = self._index[b]
                cache[top] = ((b, idx[p], idx[q], 0),)
            elif w in self._cycle_block_of:
                b = self._cycle_block_of[w]
                cycle = self.blocks[b].cycle
                base, word = cycle.src, cycle.edges
                while p.dst != base:
                    (eid,) = g.out_edges[p.dst]
                    p = PathSeq(p.src, g.edge_dst[eid], p.edges + (eid,))
                    q = PathSeq(q.src, g.edge_dst[eid], q.edges + (eid,))
                p, a = _strip_cycle(p, word, base)
                q, bcount = _strip_cycle(q, word, base)
                idx = self._index[b]
                if p not in idx or q not in idx:
                    raise PreconditionError(
                        f"monomial {top!r} not expressible in the block families"
                    )
                cache[top] = ((b, idx[p], idx[q], a - bcount),)
            else:
                children = [
                    MonPair(
                        PathSeq(p.src, g.edge_dst[eid], p.edges + (eid,)),
                        PathSeq(q.src, g.edge_dst[eid], q.edges + (eid,)),
                    )
                    for eid in g.out_edges[w]
                ]
                stack.append((top, children))
                stack.extend((child, None) for child in children)
        return cache[mon]

    def __repr__(self):
        sizes = ", ".join(
            f"M_{b.size}(K)" for b in self.sink_blocks
        ) or ""
        csizes = ", ".join(
            f"M_{b.size}(K[x,x^-1])" for b in self.cycle_blocks
        )
        return f"Decomposition({', '.join(s for s in (sizes, csizes) if s)})"


def _strip_cycle(p: PathSeq, word: tuple, base: str):
    """Remove trailing full copies of the cycle word; returns (path, count)."""
    count = 0
    edges = p.edges
    n = len(word)
    while len(edges) >= n and edges[-n:] == word:
        edges = edges[:-n]
        count += 1
    # when everything was stripped, p was a pure cycle power, so p.src == base
    return PathSeq(p.src, base, edges), count


def decompose(g: Graph) -> Decomposition:
    """Block decomposition; requires the graph to have no cycle with an exit.

    Raises `PreconditionError` once the basis paths of all blocks hold more
    than `graphs.PATHS_INTO_WORK_LIMIT` edge ids in total; the total is
    checked after each block, so at most one block past the limit is built.
    """
    witness = cycle_with_exit_witness(g)
    if witness is not None:
        cyc, exit_edge = witness
        raise PreconditionError(
            f"graph is not no-exit: cycle {'/'.join(cyc.edges)} "
            f"has exit {exit_edge}"
        )
    ends = [(s, None) for s in sinks(g)] + [(c.src, c) for c in cycles(g)]
    sink_blocks, cycle_blocks = [], []
    size = 0
    for end, cycle in ends:
        paths = tuple(paths_into(g, end, cycle))
        size += sum(map(len, paths))
        if size > graphs.PATHS_INTO_WORK_LIMIT:
            raise graphs._work_limit_error(
                "basis paths", g, graphs.PATHS_INTO_WORK_LIMIT
            )
        if cycle is None:
            sink_blocks.append(SinkBlock(end, paths))
        else:
            cycle_blocks.append(CycleBlock(cycle, paths))
    return Decomposition(g, sink_blocks, cycle_blocks)


# ---------------------------------------------------------------------------
# Matrix images
# ---------------------------------------------------------------------------


class MatrixImage(SparseTerms):
    """Block-diagonal image: `terms` maps (block, row, col) to the entry.

    Sink-block entries are field elements, cycle-block entries Laurent
    polynomials.  Indices are 0-based.
    """

    __slots__ = ()
    dec = SparseTerms._context
    _MIXED = "images over different decompositions"

    @property
    def blocks(self) -> tuple:
        """The {(row, col): entry} dict of each block, aligned with
        `dec.blocks`; built on each read."""
        out = tuple({} for _ in self.dec.blocks)
        for (b, j, l), v in self.terms.items():
            out[b][j, l] = v
        return out

    def __mul__(self, other):
        self._check(other)
        by_row = {}
        for (b, m, l), v in other.terms.items():
            by_row.setdefault((b, m), []).append((l, v))
        return self._like(add_terms({}, (
            ((b, j, l), v * w)
            for (b, j, m), v in self.terms.items()
            for l, w in by_row.get((b, m), ())
        )))

    def star(self, involution: str) -> "MatrixImage":
        """Conjugate transpose blockwise; Laurent entries also invert x."""
        dec = self.dec
        return self._like({
            (b, l, j): laurent_star(v, involution) if dec.is_cycle_block(b)
            else field_star(v, involution)
            for (b, j, l), v in self.terms.items()
        })

    def __repr__(self):
        parts = [f"b{b}[{j},{l}]={v!r}" for (b, j, l), v in sorted(self.terms.items())]
        return "MatrixImage(" + ", ".join(parts) + ")" if parts else "MatrixImage(0)"


def phi(dec: Decomposition, x: AlgebraElement) -> MatrixImage:
    """The block-matrix image of a Leavitt-mode element."""
    alg = x.algebra
    if alg.graph is not dec.graph:
        raise ValueError("element is over a different graph")
    if alg.mode != LEAVITT:
        raise ValueError("phi expects Leavitt-mode elements")
    # sum the coefficients of each matrix unit (block, j, l, x^k) first
    units = add_terms({}, (
        (unit, c) for mon, c in x.terms.items() for unit in dec.expand_monomial(mon)
    ))
    entries = {}
    for (b, j, l, k), c in units.items():
        entries.setdefault((b, j, l), {})[k] = c
    return MatrixImage(dec, {
        key: LaurentPoly(alg.field, entry) if dec.is_cycle_block(key[0]) else entry[0]
        for key, entry in entries.items()
    })


def phi_inverse_unit(dec: Decomposition, algebra: PathAlgebra,
                     block: int, j: int, l: int, k: int = 0) -> AlgebraElement:
    """The basis monomial mapping to the matrix unit (j, l) [times x^k].

    Sink blocks require k = 0; on cycle blocks negative k means starred
    cycle powers on the right-hand path.
    """
    if not 0 <= block < len(dec.blocks):
        raise ValueError(f"block index {block} out of range")
    blk = dec.blocks[block]
    if not (0 <= j < blk.size and 0 <= l < blk.size):
        raise ValueError(f"indices ({j}, {l}) out of range for size {blk.size}")
    pj, pl = blk.paths[j], blk.paths[l]
    if not dec.is_cycle_block(block):
        if k != 0:
            raise ValueError("sink blocks carry no exponent: k must be 0")
        return algebra.monomial(pj, pl)
    base, word = blk.cycle.src, blk.cycle.edges
    if k >= 0:
        left = PathSeq(pj.src, base, pj.edges + word * k)
        right = pl
    else:
        left = pj
        right = PathSeq(pl.src, base, pl.edges + word * (-k))
    return algebra.monomial(left, right)


def pull_back_trace(dec: Decomposition, field: str, involution: str):
    """Faithful trace obtained by tracing each block (cycle blocks through
    the degree-zero coefficient), as a function of Leavitt-mode elements."""
    require_positive_definite(field, involution)

    def trace(x: AlgebraElement) -> FieldElem:
        if x.algebra.field != field:
            raise ValueError("element field does not match the trace")
        acc = fe_zero(field)
        for mon, c in x.terms.items():
            for b, j, l, k in dec.expand_monomial(mon):
                if j == l and k == 0:
                    acc = acc + c
        return acc

    return trace


def decomposition_report(dec: Decomposition) -> dict:
    """JSON-ready report of the block structure."""
    return {
        "sink_blocks": [
            {
                "sink": b.sink,
                "size": b.size,
                "paths": [format_path(p) for p in b.paths],
            }
            for b in dec.sink_blocks
        ],
        "cycle_blocks": [
            {
                "cycle": "/".join(b.cycle.edges),
                "size": b.size,
                "paths": [format_path(p) for p in b.paths],
            }
            for b in dec.cycle_blocks
        ],
    }
