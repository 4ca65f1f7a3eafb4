"""Matrix-block decomposition of the Leavitt algebra of a no-exit graph.

A finite no-exit graph splits its Leavitt path algebra into one full matrix
algebra over the field per sink (indexed by the paths into that sink) and
one matrix algebra over Laurent polynomials per cycle (indexed by the paths
into the cycle's base vertex that avoid the full cycle word).

The isomorphism sends p_j p_l* to the matrix unit E_jl of its sink block
and r_j c^k r_l* to x^k E_jl of its cycle block.  These basis paths give
every vertex v as the sum of P P* over the basis paths P that start at v,
so an arbitrary monomial p q* is the sum of (p P)(q P)* over the basis
paths P starting at its range; in a cycle block each side then sheds its
trailing copies of the cycle word into the exponent.
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
    """Block data for a no-exit graph, with the monomial expansion cache.

    `_basis_from[v]` holds a (block, cycle word, basis path) triple for each
    basis path starting at v, the word empty in a sink block: a sink holds
    only itself, a cycle vertex only its roll to the base.  Graph, blocks
    and tables are fixed once built, so a deep copy is the object itself.
    """

    def __init__(self, g: Graph, sink_blocks, cycle_blocks):
        self.graph = g
        self.sink_blocks = tuple(sink_blocks)
        self.cycle_blocks = tuple(cycle_blocks)
        self.blocks = self.sink_blocks + self.cycle_blocks
        self._index = []
        self._basis_from = {v: [] for v in g.vertices}
        for b, block in enumerate(self.blocks):
            word = block.cycle.edges if self.is_cycle_block(b) else ()
            self._index.append({p: i for i, p in enumerate(block.paths)})
            for p in block.paths:
                self._basis_from[p.src].append((b, word, p))
        self._expand_cache = {}

    def __deepcopy__(self, memo):
        return self

    def is_cycle_block(self, b: int) -> bool:
        return b >= len(self.sink_blocks)

    def block_sizes(self):
        return tuple(block.size for block in self.blocks)

    def expand_monomial(self, mon: MonPair):
        """Resolve p q* into basis monomials: a tuple of (block, j, l, k).

        The range of p and q is the sum of P P* over the basis paths P
        starting there, so p q* is the sum of (p P)(q P)*, each side less
        its trailing cycle words, which make up k.  Only the monomials
        asked for are cached.

        Raises `PreconditionError` when p q* is not expressible in the
        block families: p or q is not a path of the decomposed graph, or
        their range is not one of its vertices.
        """
        out = self._expand_cache.get(mon)
        if out is None:
            p, q = mon
            out = []
            # every vertex starts a basis path; a range outside the graph
            # starts none, so it leaves `out` empty
            for b, word, path in self._basis_from.get(p.dst, ()):
                pe, a = _strip_cycle(p.edges + path.edges, word)
                qe, c = _strip_cycle(q.edges + path.edges, word)
                # a plain (src, dst, edges) tuple finds its PathSeq key
                idx = self._index[b]
                j = idx.get((p.src, path.dst, pe))
                l = idx.get((q.src, path.dst, qe))
                if j is None or l is None:
                    out = ()
                    break
                out.append((b, j, l, a - c))
            if not out:
                raise PreconditionError(
                    f"monomial {mon!r} not expressible in the block families"
                )
            out = self._expand_cache[mon] = tuple(out)
        return out

    def __repr__(self):
        sizes = ", ".join(
            f"M_{b.size}(K)" for b in self.sink_blocks
        ) or ""
        csizes = ", ".join(
            f"M_{b.size}(K[x,x^-1])" for b in self.cycle_blocks
        )
        return f"Decomposition({', '.join(s for s in (sizes, csizes) if s)})"


def _strip_cycle(edges: tuple, word: tuple):
    """Remove trailing full copies of the cycle word, none for the empty
    word; returns (edges, count).  When everything goes, the path was a
    pure cycle power, so it starts at the base."""
    count = 0
    n = len(word)
    while n and edges[-n:] == word:
        edges = edges[:-n]
        count += 1
    return edges, count


def decompose(g: Graph) -> Decomposition:
    """Block decomposition; requires the graph to have no cycle with an exit,
    and raises `graphs._exit_error`'s `PreconditionError` otherwise.

    Raises `PreconditionError` once the basis paths of all blocks hold more
    than `graphs.PATHS_INTO_WORK_LIMIT` edge ids in total; the total is
    checked after each block, so at most one block past the limit is built.
    `traces.build_faithful_trace` counts the basis paths from each vertex
    without listing them, so it has no such limit.
    """
    if cycle_with_exit_witness(g) is not None:
        raise graphs._exit_error(g)
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
