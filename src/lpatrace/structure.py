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

from dataclasses import dataclass

from .errors import PreconditionError
from .gis import MonPair
from .graphs import (
    CycleRep,
    Graph,
    PathSeq,
    cycle_with_exit_witness,
    cycles,
    format_path,
    is_no_exit,
    paths_into,
    sinks,
)
from .path_algebras import LEAVITT, AlgebraElement, PathAlgebra
from .scalars import (
    FieldElem,
    fe_one,
    fe_zero,
    field_star,
    laurent,
    laurent_one,
    laurent_star,
    require_positive_definite,
)


@dataclass(frozen=True)
class SinkBlock:
    sink: str
    paths: tuple  # all paths ending at the sink, (length, word)-sorted

    @property
    def size(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class CycleBlock:
    cycle: CycleRep
    paths: tuple  # cycle-free paths ending at the base, (length, word)-sorted

    @property
    def base(self) -> str:
        return self.cycle.base

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
        """Resolve p q* into basis monomials: a list of (block, j, l, k)."""
        cached = self._expand_cache.get(mon)
        if cached is not None:
            return cached
        g = self.graph
        w = mon.p.dst
        if w in self._sink_block_of:
            b = self._sink_block_of[w]
            idx = self._index[b]
            result = ((b, idx[mon.p], idx[mon.q], 0),)
        elif w in self._cycle_block_of:
            b = self._cycle_block_of[w]
            block = self.blocks[b]
            base, word = block.base, block.cycle.edges
            p, q = mon.p, mon.q
            while p.dst != base:
                (eid,) = g.out_edges[p.dst]
                p = PathSeq(p.src, g.edge_dst[eid], p.edges + (eid,))
                q = PathSeq(q.src, g.edge_dst[eid], q.edges + (eid,))
            p, a = _strip_cycle(p, word, base)
            q, bcount = _strip_cycle(q, word, base)
            idx = self._index[b]
            if p not in idx or q not in idx:
                raise PreconditionError(
                    f"monomial {mon!r} not expressible in the block families"
                )
            result = ((b, idx[p], idx[q], a - bcount),)
        else:
            out = []
            for eid in g.out_edges[w]:
                dst = g.edge_dst[eid]
                child = MonPair(
                    PathSeq(mon.p.src, dst, mon.p.edges + (eid,)),
                    PathSeq(mon.q.src, dst, mon.q.edges + (eid,)),
                )
                out.extend(self.expand_monomial(child))
            result = tuple(out)
        self._expand_cache[mon] = result
        return result

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
    """Block decomposition; requires the graph to have no cycle with an exit."""
    if not is_no_exit(g):
        cyc, exit_edge = cycle_with_exit_witness(g)
        raise PreconditionError(
            f"graph is not no-exit: cycle {'/'.join(cyc.edges)} "
            f"has exit {exit_edge}"
        )
    sink_blocks = [SinkBlock(s, tuple(paths_into(g, s))) for s in sinks(g)]
    cycle_blocks = [
        CycleBlock(c, tuple(paths_into(g, c.base, forbid_full_cycle=c)))
        for c in cycles(g)
    ]
    dec = Decomposition(g, sink_blocks, cycle_blocks)
    _check_families(dec)
    return dec


def _check_families(dec: Decomposition) -> None:
    seen = set()
    for block in dec.blocks:
        if isinstance(block, SinkBlock):
            end, forbidden = block.sink, None
        else:
            end, forbidden = block.base, block.cycle.edges
        for p in block.paths:
            if p in seen:
                raise PreconditionError(f"duplicate family path {p!r}")
            seen.add(p)
            if p.dst != end:
                raise PreconditionError(
                    f"family path {format_path(p)} does not end at {end!r}"
                )
            if forbidden is not None:
                n = len(forbidden)
                if any(
                    p.edges[i: i + n] == forbidden
                    for i in range(len(p.edges) - n + 1)
                ):
                    raise PreconditionError(
                        f"family path {format_path(p)} contains the full "
                        f"cycle word {'/'.join(forbidden)}"
                    )
    covered = {p.src for p in seen}
    missing = [v for v in dec.graph.vertices if v not in covered]
    if missing:
        raise PreconditionError(
            f"vertices {missing} source no decomposition basis path"
        )


# ---------------------------------------------------------------------------
# Matrix images
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MatrixImage:
    """Block-diagonal image: sparse {(row, col): entry} per block.

    Sink-block entries are field elements, cycle-block entries Laurent
    polynomials.  Indices are 0-based.
    """

    dec: Decomposition
    blocks: tuple  # dicts, aligned with dec.blocks

    def __eq__(self, other):
        if not isinstance(other, MatrixImage):
            return NotImplemented
        return self.dec is other.dec and self.blocks == other.blocks

    def __bool__(self):
        return any(self.blocks)

    def __add__(self, other):
        self._check(other)
        out = []
        for mine, theirs in zip(self.blocks, other.blocks):
            acc = dict(mine)
            for key, val in theirs.items():
                cur = acc.get(key)
                cur = val if cur is None else cur + val
                if cur:
                    acc[key] = cur
                else:
                    acc.pop(key, None)
            out.append(acc)
        return MatrixImage(self.dec, tuple(out))

    def __neg__(self):
        return MatrixImage(
            self.dec,
            tuple({k: -v for k, v in block.items()} for block in self.blocks),
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = []
        for mine, theirs in zip(self.blocks, other.blocks):
            by_row = {}
            for (j, m), val in theirs.items():
                by_row.setdefault(j, []).append((m, val))
            acc = {}
            for (j, m), val in mine.items():
                for l, val2 in by_row.get(m, ()):
                    key = (j, l)
                    cur = acc.get(key)
                    cur = val * val2 if cur is None else cur + val * val2
                    if cur:
                        acc[key] = cur
                    else:
                        acc.pop(key, None)
            out.append(acc)
        return MatrixImage(self.dec, tuple(out))

    def star(self, involution: str) -> "MatrixImage":
        """Conjugate transpose blockwise; Laurent entries also invert x."""
        out = []
        for b, block in enumerate(self.blocks):
            if self.dec.is_cycle_block(b):
                out.append({
                    (l, j): laurent_star(v, involution)
                    for (j, l), v in block.items()
                })
            else:
                out.append({
                    (l, j): field_star(v, involution)
                    for (j, l), v in block.items()
                })
        return MatrixImage(self.dec, tuple(out))

    def _check(self, other):
        if not isinstance(other, MatrixImage):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.dec is not self.dec:
            raise ValueError("images over different decompositions")

    def __repr__(self):
        parts = []
        for b, block in enumerate(self.blocks):
            for (j, l), v in sorted(block.items()):
                parts.append(f"b{b}[{j},{l}]={v!r}")
        return "MatrixImage(" + ", ".join(parts) + ")" if parts else "MatrixImage(0)"


def matrix_identity(dec: Decomposition, field: str) -> MatrixImage:
    blocks = []
    for b, block in enumerate(dec.blocks):
        if dec.is_cycle_block(b):
            one = laurent_one(field)
        else:
            one = fe_one(field)
        blocks.append({(j, j): one for j in range(block.size)})
    return MatrixImage(dec, tuple(blocks))


def phi(dec: Decomposition, x: AlgebraElement) -> MatrixImage:
    """The block-matrix image of a Leavitt-mode element."""
    alg = x.algebra
    if alg.graph is not dec.graph:
        raise ValueError("element is over a different graph")
    if alg.mode != LEAVITT:
        raise ValueError("phi expects Leavitt-mode elements")
    field = alg.field
    blocks = [dict() for _ in dec.blocks]
    for mon, c in x.terms.items():
        for b, j, l, k in dec.expand_monomial(mon):
            acc = blocks[b]
            key = (j, l)
            if dec.is_cycle_block(b):
                add = laurent(field, {k: c})
            else:
                add = c
            cur = acc.get(key)
            cur = add if cur is None else cur + add
            if cur:
                acc[key] = cur
            else:
                acc.pop(key, None)
    return MatrixImage(dec, tuple(blocks))


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
    word = blk.cycle.edges
    base = blk.base
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
