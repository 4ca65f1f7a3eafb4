"""Reference answers computed without lpatrace.

The benchmark checks query results against values from this module
(closed forms, counts made by small dynamic programs, arithmetic on plain
``Fraction`` pairs), or against each other, as in t(xy) = t(yx).  Nothing
here imports lpatrace, so a defect in the package cannot hide in its own
reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd

# -- graphs -----------------------------------------------------------------


@dataclass
class GraphSpec:
    """A generated graph, with the cycles the generator planted in it."""

    vertices: list
    edges: list  # (edge id, source, range)
    cycles: list = field(default_factory=list)  # edge words, least rotation
    no_exit: bool = True

    def text(self) -> str:
        lines = [f"v {v}" for v in self.vertices]
        lines += [f"e {e} {s} {d}" for e, s, d in self.edges]
        return "\n".join(lines) + "\n"

    def src(self, e):
        return next(s for eid, s, _ in self.edges if eid == e)

    def sinks(self):
        sources = {s for _, s, _ in self.edges}
        return [v for v in self.vertices if v not in sources]


def least_rotation(word) -> tuple:
    word = tuple(word)
    return min(word[i:] + word[:i] for i in range(len(word)))


def complete_digraph_cycles(n: int) -> int:
    """Simple cycles of the loopless complete digraph on n vertices."""
    return sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _closed_walks(spec: GraphSpec, length: int) -> int:
    """trace(A^length) for the edge-count adjacency matrix A."""
    index = {v: i for i, v in enumerate(spec.vertices)}
    n = len(index)
    adj = [[0] * n for _ in range(n)]
    for _, s, d in spec.edges:
        adj[index[s]][index[d]] += 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(length):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(power[i][i] for i in range(n))


def rotation_classes(spec: GraphSpec, max_len: int) -> int:
    """Rotation classes of closed edge words of length 1..max_len.

    Burnside over the cyclic shifts: (1/l) sum_{d | l} phi(d) tr(A^(l/d)).
    On an r-petal rose tr(A^m) = r^m, the necklace count.
    """
    walks = {m: _closed_walks(spec, m) for m in range(1, max_len + 1)}
    total = 0
    for length in range(1, max_len + 1):
        s = sum(
            _euler_phi(d) * walks[length // d]
            for d in range(1, length + 1)
            if length % d == 0
        )
        total += s // length
    return total


def _paths_ending_at(spec: GraphSpec, skip_edges=frozenset()):
    """Number of paths (lazy path included) ending at each vertex.

    Valid for vertices whose ancestors, through edges not in `skip_edges`,
    lie on no cycle; the generator guarantees that for every vertex off a
    planted cycle.
    """
    incoming = {v: [] for v in spec.vertices}
    for e, s, d in spec.edges:
        if e not in skip_edges:
            incoming[d].append(s)
    memo = {}

    def count(v):
        if v not in memo:
            memo[v] = 1 + sum(count(s) for s in incoming[v])
        return memo[v]

    return count


def block_sizes(spec: GraphSpec) -> tuple:
    """(sink block sizes, cycle block sizes) of a no-exit graph.

    A sink block holds the paths into the sink.  A cycle block holds the
    paths into the cycle's base that do not contain the whole cycle word:
    one per path that reaches a cycle vertex u from off the cycle, then
    walks the cycle from u to the base without wrapping.
    """
    cycle_edges = {e for word in spec.cycles for e in word}
    count = _paths_ending_at(spec, skip_edges=cycle_edges)
    sinks = [count(s) for s in spec.sinks()]
    cycles = [sum(count(spec.src(e)) for e in word) for word in spec.cycles]
    return sinks, cycles


def vertex_constraint_dimension(spec: GraphSpec) -> int:
    """Dimension of {t : t(v) = sum over e out of v of t(r(e))}."""
    index = {v: i for i, v in enumerate(spec.vertices)}
    rows = {}
    for _, s, d in spec.edges:
        row = rows.setdefault(s, [Fraction(0)] * len(index))
        row[index[d]] -= 1
    for s, row in rows.items():
        row[index[s]] += 1
    return len(index) - _rank(list(rows.values()))


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# -- scalars and trace values -----------------------------------------------
# A scalar is a pair (re, im) of Fractions.

ZERO = (Fraction(0), Fraction(0))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def scalar_text(c) -> str:
    """The `a`, `a/b` or `a+bi` syntax that lpa reads for a scalar."""
    re_part, im_part = c
    if im_part == 0:
        return str(re_part)
    return f"{re_part}{'+' if im_part > 0 else '-'}{abs(im_part)}i"


_SCALAR = re.compile(r"^(-?\d+(?:/\d+)?)?(?:([+-]?\d+(?:/\d+)?)i)?$")


def parse_scalar(text: str):
    """Read a scalar as printed by lpa (`a`, `a/b`, `a+bi`, `a-b/ci`, `bi`)."""
    m = _SCALAR.match(text)
    if not m or not (m.group(1) or m.group(2)):
        raise ValueError(f"unreadable scalar {text!r}")
    return (Fraction(m.group(1) or 0), Fraction(m.group(2) or 0))


@dataclass(frozen=True)
class Term:
    """coeff * p q*, where p and q are (source vertex, edge word) and both
    paths end at the vertex `end`."""

    coeff: tuple
    p: tuple
    q: tuple
    end: str


def trace_value(terms, vertex_values, cycle_values, star_values):
    """The trace of sum(coeff * p q*) from class values, term by term.

    p q* with p = q lies in the class of its range vertex; with p = q w, in
    the rotation class of w; with q = p w, in the starred class of w;
    otherwise in the zero class.  A spec satisfying the vertex constraint
    is well defined on the Leavitt quotient, so evaluating the unreduced
    terms gives the value of the normal form.
    """
    acc = ZERO
    for t in terms:
        (psrc, pw), (qsrc, qw) = t.p, t.q
        if psrc != qsrc:
            continue
        if pw == qw:
            value = vertex_values.get(t.end, ZERO)
        elif pw[: len(qw)] == qw:
            value = cycle_values.get(least_rotation(pw[len(qw):]), ZERO)
        elif qw[: len(pw)] == pw:
            value = star_values.get(least_rotation(qw[len(pw):]), ZERO)
        else:
            continue
        acc = add(acc, mul(t.coeff, value))
    return acc


# -- block matrices ---------------------------------------------------------
# A block is {(row, col): {exponent: scalar}}; sink entries use exponent 0.


def block_product(left, right):
    out = []
    for a, b in zip(left, right):
        by_row = {}
        for (j, m), val in b.items():
            by_row.setdefault(j, []).append((m, val))
        acc = {}
        for (j, m), val in a.items():
            for col, val2 in by_row.get(m, ()):
                entry = acc.setdefault((j, col), {})
                for e1, c1 in val.items():
                    for e2, c2 in val2.items():
                        entry[e1 + e2] = add(entry.get(e1 + e2, ZERO), mul(c1, c2))
        out.append(_drop_zeros(acc))
    return out


def _drop_zeros(block):
    out = {}
    for key, poly in block.items():
        poly = {k: c for k, c in poly.items() if c != ZERO}
        if poly:
            out[key] = poly
    return out


# -- semigroups -------------------------------------------------------------


def partitions(n: int) -> int:
    """p(n), the number of conjugacy classes of the symmetric group S_n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def group_inverse(group, g: int) -> int:
    n = len(group)
    identity = next(e for e in range(n) if all(group[e][x] == x for x in range(n)))
    return next(h for h in range(n) if group[g][h] == identity)


def conjugacy_classes(group):
    """Conjugacy classes of a group given by its 0-based Cayley table."""
    n = len(group)
    inverse = [group_inverse(group, k) for k in range(n)]
    seen, classes = set(), []
    for g in range(n):
        if g not in seen:
            cls = {group[group[k][g]][inverse[k]] for k in range(n)}
            seen |= cls
            classes.append(cls)
    return classes


def in_group_commutator_span(classes, coeffs) -> bool:
    """x = sum a_g g is a sum of commutators iff each class sum of a_g is 0."""
    return all(sum(coeffs.get(g, 0) for g in cls) == 0 for cls in classes)


def chain_is_valid(table, g, h, chain) -> bool:
    """g = a1 b1, b_i a_i = a_(i+1) b_(i+1), and b_n a_n = h."""
    current = g
    for a, b in chain:
        if table[a][b] != current:
            return False
        current = table[b][a]
    return current == h
