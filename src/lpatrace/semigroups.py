"""Finite semigroups with zero, given by Cayley tables.

Provides the conjugacy-type equivalence (the transitive closure of relating
ab to ba), central maps, contracted-semigroup-ring arithmetic, trace
evaluation, the Kaplansky and augmentation traces of a group with zero, the
canonical minimal trace into the free module on the nonzero classes, and
the associated decision procedures.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import contains, eq, index, itemgetter

from .errors import ParseError, PreconditionError, content_lines
from .linalg import rank
from .scalars import (
    FreeVector,
    Q,
    _Frozen,
    _coerce,
    add_terms,
    fe_one,
    fe_zero,
    natural_numbers,
)


class FiniteSemigroup(_Frozen):
    """A validated Cayley table with an absorbing zero element.

    Immutable.  `table` is a tuple of row tuples, of which equal rows may
    be one object (`parse_cayley` reads a repeated row once).  Equality
    and hashing read (table, zero, labels); `_sim`
    is the `sim_classes` cache, `_flat` the entries row after row as
    `bytes`, up to 256 elements (see `_packed`), and `_gens` the nonzero
    generators that Light's test checked in `build_semigroup`, which
    `sim_classes` reads; None on a semigroup built directly, unpickled or
    copied, whose table was never checked, and `_flat` always None above
    256 elements.
    All three are written once, and all are left out of equality, hashing
    and pickling.
    """

    __slots__ = ("table", "zero", "labels", "_sim", "_flat", "_gens")

    def __init__(self, table: tuple, zero: int, labels: tuple | None = None):
        for name, value in zip(self.__slots__, (table, zero, labels, None, None, None)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return FiniteSemigroup, (self.table, self.zero, self.labels)

    def __eq__(self, other):  # compares the constructor arguments
        if type(other) is not FiniteSemigroup:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def nonzero_elements(self):
        return [i for i in range(self.size) if i != self.zero]

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)

    def __repr__(self):
        return f"FiniteSemigroup(size={self.size}, zero={self.zero})"


def _packed(G: FiniteSemigroup) -> bytes:
    """The entries of G, of at most 256 elements, row after row."""
    if G._flat is None:  # G was built directly, unpickled or copied
        object.__setattr__(G, "_flat", bytes(itertools.chain.from_iterable(G.table)))
    return G._flat


def _element_index(idx, n: int, name: str = "element index {}") -> int:
    """idx read with `operator.index` (a bool reads as 0 or 1), in 0..n-1.

    Raises ValueError for an index that `operator.index` refuses (a float,
    a string, None) and for one out of range, naming it by `name`, whose
    `{}`, if it has one, shows the index.
    """
    try:
        i = index(idx)
    except TypeError:
        raise ValueError(f"{name.format(repr(idx))} is not an integer") from None
    if not 0 <= i < n:
        raise ValueError(f"{name.format(i)} out of range")
    return i


class _ParsedTable(namedtuple("_ParsedTable", "rows fallback")):
    """A table as `parse_cayley` read it, for `build_semigroup`: `rows`,
    one tuple of exact ints per row, all n long, and `fallback`, the rows
    that `natural_numbers` read.  Every other entry was looked up among the
    names of 0..n-1, so only those rows can hold an entry out of range."""

    __slots__ = ()


def build_semigroup(table, zero_index: int, labels=None) -> FiniteSemigroup:
    """Validate a Cayley table: squareness, entries, associativity, zero.

    Entries and the zero index are integers: anything `operator.index`
    reads, a bool as 0 or 1.  A float, a string or a `Fraction` entry is a
    ValueError, never truncated.  After the squareness check each row is
    read once by C code that checks its entries.  Up to 256 elements a row
    is read into `bytes` (0..255); the rows, joined for the range check,
    stay on the semigroup as its packed table and let Light's test compose
    rows in C.  Above that one itemgetter per row picks its entries out of
    `range(n)` followed by n Nones: an entry past that tuple raises at
    once, and one that it maps to None (n..2n-1 and -n..-1) or, counting
    from the end, to another element (-2n..-n-1) leaves the mapped table
    unequal to the given one, so the range check is one table compare.
    The rows that `parse_cayley` read are square tuples of exact ints
    already: they become the table as they are, and above 256 elements
    only the rows read by its `natural_numbers` fallback are range-checked.
    Whether the zero is absorbing is known before Light's test, which then
    need not check it; the generators it checked are kept as `_gens`.
    """
    parsed = type(table) is _ParsedTable
    if parsed:
        table, fallback = table
    else:
        table = tuple(map(tuple, table))  # any iterables, never read as buffers
    rows = table
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")
    if not parsed and any(len(row) != n for row in rows):
        raise ValueError("table is not square")
    flat = None
    try:
        if n <= 256:
            rows = tuple(map(bytes, rows))
            flat = b"".join(rows)
            in_range = not flat.translate(None, bytes(range(n)))
        elif parsed:  # natural numbers: none is below 0
            in_range = all(max(row) < n for row in fallback)
        else:
            padded = tuple(range(n)) + (None,) * n
            mapped = tuple(itemgetter(*row)(padded) for row in rows)
            # an __index__ object that is not an int is equal after index()
            in_range = mapped == rows or mapped == tuple(
                tuple(map(index, row)) for row in rows
            )
            table = rows = mapped
    except TypeError:
        raise ValueError("table entries must be integers") from None
    except (ValueError, IndexError):  # bytes below 0 or past 255; past the padding
        in_range = False
    if not in_range:
        raise ValueError("table entry out of range")
    z = _element_index(zero_index, n, "zero index")
    absorbing = rows[z].count(z) == n and all(row[z] == z for row in rows)
    witness, gens = _associativity_witness(rows, flat, z if absorbing else None)
    if witness is not None:
        a, b, c = witness
        raise ValueError(f"table not associative: ({a}*{b})*{c} != {a}*({b}*{c})")
    if not absorbing:
        raise ValueError(f"element {z} is not absorbing")
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise ValueError("labels must be unique and cover all elements")
    if flat is not None and not parsed:  # exact ints, not the given entries
        table = tuple(map(tuple, rows))
    G = FiniteSemigroup(table, z, labels)
    object.__setattr__(G, "_flat", flat)
    object.__setattr__(G, "_gens", tuple(gens))
    return G


def _right_closure(rows, rep, gens, reached: set, frontier: set) -> None:
    """One frontier pass: add `frontier` to `reached`, then every product of
    a new element on the right by `gens`, until nothing new appears.

    The products of y depend only on its row, so they are read from row
    rep[y], the first with that row: each distinct row once per pass, found
    without hashing the rows again.
    """
    right = itemgetter(*gens, gens[0])  # two indices at least: a tuple
    while frontier:
        reached |= frontier
        distinct = set(map(rep.__getitem__, frontier))
        products = map(right, map(rows.__getitem__, distinct))
        frontier = set(itertools.chain.from_iterable(products)) - reached


def _light_generators(rows, rep, first, order) -> list:
    """Generators of the table: all of `first`, closed in one frontier
    pass, then each element of `order` that those before it do not reach.
    `rep` is as in `_right_closure`.

    `reached`, the subsemigroup the generators so far generate, is kept
    closed under right products by them: a new generator x brings in y*x
    for each y reached, and x itself.
    """
    n = len(rows)
    gens, reached = list(first), set()
    if gens:
        _right_closure(rows, rep, gens, reached, set(gens))
    for x in order:
        if len(reached) == n:
            break
        if x not in reached:
            gens.append(x)
            frontier = set(map(itemgetter(x), map(rows.__getitem__, reached)))
            frontier.add(x)
            _right_closure(rows, rep, gens, reached, frontier - reached)
    return gens


def _associativity_witness(rows, flat, zero):
    """Light's test: (None, gens) for an associative table, gens the
    generators it checked, `zero` left out; else ((a, b, c), None) with
    (a*b)*c != a*(b*c).

    The g with (x*g)*y == x*(g*y) for all x, y are closed under the product,
    even in a non-associative table, so g need only range over a set of
    generators.  Both sides depend on x only through its row, so one x per
    distinct row is checked.  `zero`, if not None, is an absorbing element,
    which passes for every x and y, so it is not checked.

    Up to 256 elements the generators start from the indecomposable
    elements (those not in S*S, so in every generating set), the bytes of
    `range(n)` that `flat`, the rows joined, never holds, found by one
    `bytes.translate`; the rest follow in index order.  Above 256 elements
    they are taken in decreasing order of row image, estimated on every
    eighth entry of the row, which reaches the whole table in fewer
    generators.  A table that fails is searched again with its generators
    in index order, so the triple named is the first one in that order,
    whichever generator found the failure.
    """
    n = len(rows)
    first_with_row, rep = {}, []  # rep[x]: the first element with x's row
    for x, row in enumerate(rows):
        rep.append(first_with_row.setdefault(row, x))
    cols = None
    if n <= 256:  # translate reads a 256-byte table: pad each row to one
        pad = bytes(256 - n)
        first_with_row = {row + pad: x for row, x in first_with_row.items()}
        first = bytes(range(n)).translate(None, flat)
        order = range(n)
    else:  # cols[a] = (x*a for each first x with its row)
        cols = tuple(zip(*map(rows.__getitem__, first_with_row.values())))
        first = ()
        order = sorted(range(n), key=lambda x: len(set(rows[x][::8])), reverse=True)
    gens = _light_generators(rows, rep, first, order)
    if zero in gens:
        gens.remove(zero)
    if _first_failure(rows, gens, first_with_row, cols) is None:
        return None, gens
    gens = _light_generators(rows, rep, (), range(n))
    return _first_failure(rows, gens, first_with_row, cols), None


def _first_failure(rows, gens, first_with_row, cols):
    """The first (x, g, c) with (x*g)*c != x*(g*c), g in `gens` in order,
    x over the first element with each row, or None.

    Up to 256 elements the keys of `first_with_row` are the rows padded to
    the 256-byte table that `bytes.translate` reads: the products x*(g*y)
    for every y are row g translated through row x, all in C, and the
    compare with row x*g is a memcmp.  Larger tables have tuple rows, as
    `bytes.translate` maps 256 values only, and `cols`, their columns at
    the first x with each row: for each g the rows x*g, read column by
    column through zip, are compared with the columns g*y as they are
    produced, so no table is kept per generator, and only a g that fails
    is checked row by row, an itemgetter over row g picking the products
    out of row x, to name the triple.
    """
    n = len(rows)
    for g in gens:
        g_row = rows[g]
        if cols is not None and all(
            map(eq, zip(*map(rows.__getitem__, cols[g])), map(cols.__getitem__, g_row))
        ):
            continue  # ((x*g)*y for x) == (x*(g*y) for x), for every y
        # (padded) row x -> (x*(g*y) for each y)
        times_g_row = g_row.translate if cols is None else itemgetter(*g_row)
        for row, x in first_with_row.items():
            left = rows[row[g]]
            if left != times_g_row(row):
                c = next(y for y in range(n) if left[y] != row[g_row[y]])
                return x, g, c
    return None


def parse_cayley(text: str) -> FiniteSemigroup:
    """Parse the Cayley-table file format.

    First line `n <size> zero <index>`, then <size> rows of element indices,
    then optional `label <index> <name>` lines.  `#` starts a comment.
    The rows read, tuples of exact ints, become the semigroup's table:
    `build_semigroup` range-checks above 256 elements only the rows with a
    word that is not an element's name, and reports a fault of the table
    only after the label lines are read.  A row whose text equals the row
    before it, blank and comment lines aside, is not read again: it is the
    same tuple.  A fault is met at a row's first copy, so every error names
    the line it names when each row is read.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty Cayley file")
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "zero":
        raise ParseError("expected `n <size> zero <index>`", lineno)
    try:
        size, zero = natural_numbers(parts[1::2])
    except ValueError as exc:
        raise ParseError(f"size and zero index {exc}", lineno) from None
    if len(lines) < 1 + size:
        raise ParseError(f"expected {size} table rows", lineno)
    table, fallback = [], []
    # entries written plainly are looked up; any other word (a leading
    # zero, a sign, an entry out of range) goes through natural_numbers
    names = {str(i): i for i in range(size)}
    previous = None
    for lineno, line in lines[1: 1 + size]:
        if line == previous:  # the row before it, read once
            table.append(row)
            continue
        previous = line
        words = line.split()
        try:
            if len(words) > 1:
                row = itemgetter(*words)(names)
            else:  # one index would make itemgetter return a scalar
                row = (names[words[0]],)
        except KeyError:
            try:
                row = tuple(natural_numbers(words))
            except ValueError as exc:
                raise ParseError(f"table entries {exc}", lineno) from None
            fallback.append(row)
        if len(row) != size:
            raise ParseError(f"expected {size} entries", lineno)
        table.append(row)
    labels = None
    label_map = {}
    for lineno, line in lines[1 + size:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "label":
            raise ParseError("expected `label <index> <name>`", lineno)
        try:
            (idx,) = natural_numbers(parts[1:2])
        except ValueError as exc:
            raise ParseError(f"label index {exc}", lineno) from None
        if not 0 <= idx < size:
            raise ParseError(f"label index {idx} out of range", lineno)
        if label_map.setdefault(idx, parts[2]) != parts[2]:
            raise ParseError(f"conflicting labels for element {idx}", lineno)
    if label_map:
        labels = tuple(label_map.get(i, str(i)) for i in range(size))
    try:
        return build_semigroup(_ParsedTable(tuple(table), fallback), zero, labels)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def matrix_units_semigroup(n: int) -> FiniteSemigroup:
    """Matrix units e_ij (1 <= i,j <= n) with zero; e_ij e_kl = [j=k] e_il."""
    if n < 1:
        raise ValueError("n must be positive")
    size = n * n + 1
    table = [[0] * size for _ in range(size)]
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        if j == k:
            a = matrix_unit_index(n, i, j)
            b = matrix_unit_index(n, k, l)
            table[a][b] = matrix_unit_index(n, i, l)
    labels = ["0"] + [
        f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)
    ]
    return build_semigroup(table, 0, labels)


def matrix_unit_index(n: int, i: int, j: int) -> int:
    """Element index of e_ij (1-based i, j) in matrix_units_semigroup(n)."""
    i, j = index(i), index(j)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("matrix unit index out of range")
    return 1 + (i - 1) * n + (j - 1)


def group_with_zero(group_table, labels=None) -> FiniteSemigroup:
    """Adjoin an absorbing zero (index 0) to a group's Cayley table.

    Entries are element indices, read as in `sim_witness_chain`.
    """
    rows = tuple(map(tuple, group_table))
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("group table must be square and nonempty")
    table = [[0] * (n + 1)]
    table += ([0] + [_element_index(x, n) + 1 for x in row] for row in rows)
    if labels is not None:
        labels = ("0",) + tuple(labels)
    G = build_semigroup(table, 0, labels)
    group_identity(G)
    return G


def group_identity(G: FiniteSemigroup) -> int:
    """Identity of G minus zero, provided that part is a group."""
    nonzero = G.nonzero_elements()
    identity = None
    for u in nonzero:
        if all(G.mul(u, x) == x == G.mul(x, u) for x in nonzero):
            identity = u
            break
    if identity is None:
        raise PreconditionError("semigroup is not a group with zero: no identity")
    for a in nonzero:
        row = sorted(G.mul(a, b) for b in nonzero)
        col = sorted(G.mul(b, a) for b in nonzero)
        if row != nonzero or col != nonzero:
            raise PreconditionError(
                "semigroup is not a group with zero: "
                f"element {G.label(a)} is not invertible"
            )
    return identity


def endo_semigroup(n: int) -> FiniteSemigroup:
    """All set maps {0..n-1} -> {0..n-1} under composition, zero adjoined.

    Element 1 + k corresponds to the k-th map in lexicographic order of its
    image tuple; the product f*g is "apply g, then f".
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    maps = list(itertools.product(range(n), repeat=n))
    index = {m: i + 1 for i, m in enumerate(maps)}
    size = len(maps) + 1
    table = [[0] * size for _ in range(size)]
    for f in maps:
        for g in maps:
            comp = tuple(f[g[x]] for x in range(n))
            table[index[f]][index[g]] = index[comp]
    labels = ["0"] + ["m" + "".join(str(x) for x in m) for m in maps]
    return build_semigroup(table, 0, labels)


# ---------------------------------------------------------------------------
# The conjugacy-type equivalence
# ---------------------------------------------------------------------------


class SimPartition(namedtuple("SimPartition", "class_of classes zero_class_id")):
    """Partition by the transitive closure of relating ab to ba.

    Classes are sorted tuples of element indices, ordered by least member,
    so the partition is a canonical value.
    """

    __slots__ = ()

    @property
    def nonzero_class_ids(self):
        return tuple(
            i for i in range(len(self.classes)) if i != self.zero_class_id
        )

    def representatives(self):
        """One element per nonzero class (the least index in each)."""
        return tuple(self.classes[i][0] for i in self.nonzero_class_ids)


def sim_classes(G: FiniteSemigroup) -> SimPartition:
    """One pass over the rows of generators, merging the classes of ab and ba.

    By the identity [xy, z] = [x, yz] + [y, zx], on an associative table ~
    is generated by the pairs (xb, bx) with x in any generating set X: for
    a = x*a', ab = x(a'b) ~ (a'b)x = a'(bx) ~ (bx)a' = ba, the last step by
    induction on the length of a as a word in X.  So the pass reads row a
    and column a only for a in `G._gens`, Light's generators, in
    O(|X|*n); a semigroup that `build_semigroup` did not make (`_gens` is
    None) reads every row, as its table was never checked.

    label[x] is the least member of x's class.  Row a and column a give
    every pair (ab, ba) for this a; a row whose pairs already share their
    labels is skipped by two C-level comparisons.  Up to 256 elements row
    and column are slices of the packed table (the column a strided one)
    and the labels a `bytes.translate` table, so the skip test is two
    translates and a memcmp; larger tables compare tuple rows and columns
    through itemgetters.  Merging only coarsens the partition, so a pair
    merged once stays merged and one pass is enough.  The partition is a
    pure function of the table, so it is computed once and kept on the
    semigroup instance.
    """
    if G._sim is not None:
        return G._sim
    rows, n = G.table, G.size
    gens = range(n) if G._gens is None else G._gens
    packed = n <= 256
    if packed:
        flat = _packed(G)
        label = bytearray(range(256))  # a translate table
        pairs = ((flat[a * n:a * n + n], flat[a::n]) for a in gens)
    else:
        label = list(range(n))
        # columns of the generators, transposed in C; the repeated index
        # keeps itemgetter's result a tuple, and zip drops its column
        cols = zip(*map(itemgetter(*gens, gens[0]), rows))
        pairs = zip(map(rows.__getitem__, gens), cols)
    members = [[x] for x in range(n)]
    for row, col in pairs:
        if row == col or (
            row.translate(label) == col.translate(label) if packed
            else itemgetter(*row)(label) == itemgetter(*col)(label)
        ):
            continue
        for u, v in zip(row, col):
            lu, lv = label[u], label[v]
            if lu != lv:
                if lv < lu:
                    lu, lv = lv, lu
                for x in members[lv]:
                    label[x] = lu
                members[lu] += members[lv]
                members[lv] = None
    label = label[:n]
    class_id = {root: cid for cid, root in enumerate(dict.fromkeys(label))}
    class_of = tuple(map(class_id.__getitem__, label))
    classes = [[] for _ in class_id]
    for x, cid in enumerate(class_of):
        classes[cid].append(x)
    result = SimPartition(
        class_of, tuple(map(tuple, classes)), class_of[G.zero]
    )
    object.__setattr__(G, "_sim", result)
    return result


def _factors(G: FiniteSemigroup, u: int):
    """The pairs (a, b) with a*b == u, one at a time in row-major order:
    by `bytes.find` on the packed table up to 256 elements, and above that
    by `tuple.index` in each row that holds u, which C code picks out of
    the table, never copied."""
    n = G.size
    if n <= 256:
        flat, w = _packed(G), -1
        while (w := flat.find(u, w + 1)) >= 0:
            yield divmod(w, n)
        return
    rows = G.table
    for a in itertools.compress(range(n), map(contains, rows, itertools.repeat(u))):
        row, b = rows[a], -1
        for _ in range(row.count(u)):
            b = row.index(u, b + 1)
            yield a, b


def sim_witness_chain(G: FiniteSemigroup, g: int, h: int):
    """Shortest chain g = a1 b1, b1 a1 = a2 b2, ..., bn an = h, or None.

    Returns the empty list when g == h, a list of (a, b) pairs when a chain
    exists, and None when g and h are inequivalent.  The breadth-first
    search expands u by scanning the table for each ab equal to u
    (`_factors`: the packed table up to 256 elements, the rows above), so a
    step from ab to ba is witnessed by the first such (a, b) in row-major
    order, and each element's steps are tried in that order.  It stops
    when h gets its parent, which is never overwritten.  Each index is read
    with `operator.index`, so a bool reads as 0 or 1; raises ValueError for
    an index that it refuses (a float, a string, None) and for one outside
    0..n-1.
    """
    g, h = (_element_index(x, G.size) for x in (g, h))
    if g == h:
        return []
    part = sim_classes(G)
    if part.class_of[g] != part.class_of[h]:
        return None
    rows = G.table
    parent = {g: None}
    queue = [g]  # read in order while it grows: breadth first
    for u in queue:
        for a, b in _factors(G, u):
            v = rows[b][a]
            if v not in parent:
                parent[v] = (u, (a, b))
                queue.append(v)
                if v == h:
                    break
        if h in parent:  # reached, since g ~ h
            break
    chain = []
    node = h
    while parent[node] is not None:
        node, w = parent[node]
        chain.append(w)
    chain.reverse()
    return chain


# ---------------------------------------------------------------------------
# Ring elements, central maps, traces
# ---------------------------------------------------------------------------


FREE_ZERO = FreeVector(None, {})


def sg_element(G: FiniteSemigroup, mapping, field=Q) -> FreeVector:
    pairs = []
    for idx, c in mapping.items():
        idx = _element_index(idx, G.size)
        c = _coerce(c, field)
        if idx != G.zero:
            pairs.append((idx, c))
    return FreeVector(None, add_terms({}, pairs))


def sg_mul(G: FiniteSemigroup, x: FreeVector, y: FreeVector) -> FreeVector:
    table, zero = G.table, G.zero
    products = (
        (prod, ca * cb)
        for a, ca in x.terms.items()
        for b, cb in y.terms.items()
        if (prod := table[a][b]) != zero
    )
    return FreeVector(None, add_terms({}, products))


class CentralMap(namedtuple("CentralMap", "values field")):
    """A zero-preserving central map, as a total value table.

    Values are FieldElems (trace into the field) or FreeVectors (trace into
    the free module on the nonzero classes).
    """

    __slots__ = ()

    @property
    def is_vector_valued(self) -> bool:
        return any(isinstance(v, FreeVector) for v in self.values)

    def __call__(self, idx: int):
        return self.values[idx]


def is_central_map(G: FiniteSemigroup, values) -> bool:
    """Whether values[0-indexed table] is central and kills zero.

    Central means values[ab] == values[ba] for every pair, that is, values
    is constant on each class of `sim_classes`: an O(n) read of the cached
    partition against each class's least member.
    """
    values = tuple(values)
    if len(values) != G.size:
        raise ValueError("value table must cover every element")
    if values[G.zero]:
        return False
    part = sim_classes(G)
    first = [values[members[0]] for members in part.classes]
    return all(map(eq, values, map(first.__getitem__, part.class_of)))


def central_map(G: FiniteSemigroup, values, field=Q) -> CentralMap:
    values = tuple(values)
    if not is_central_map(G, values):
        raise PreconditionError("value table is not a central map")
    return CentralMap(values, field)


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


def sg_trace_eval(G: FiniteSemigroup, delta: CentralMap, x: FreeVector):
    """sum of a_g * delta(g); FieldElem- or FreeVector-valued with delta."""
    if delta.is_vector_valued:
        acc = {}
        for idx, c in x.terms.items():
            v = delta.values[idx]
            if v:
                add_terms(acc, ((k, c * w) for k, w in v.terms.items()))
        return FreeVector(None, acc)
    acc = fe_zero(delta.field)
    for idx, c in x.terms.items():
        acc = acc + c * delta.values[idx]
    return acc


def minimal_trace(G: FiniteSemigroup, field=Q) -> CentralMap:
    """The canonical minimal trace: unit vector at the class of g, 0 on [0].

    One vector per class, shared by its members: the values are those
    vectors read off `class_of`.
    """
    part = sim_classes(G)
    one = fe_one(field)
    vectors = [FreeVector(None, {cid: one}) for cid in range(len(part.classes))]
    vectors[part.zero_class_id] = FREE_ZERO
    return CentralMap(tuple(map(vectors.__getitem__, part.class_of)), field)


def in_commutator_span(G: FiniteSemigroup, x: FreeVector) -> bool:
    """Membership in the additive span of all commutators gh - hg.

    That span is the kernel of the minimal trace, so x is in it exactly
    when its coefficients sum to zero on every nonzero class.
    """
    part = sim_classes(G)
    sums = add_terms({}, ((part.class_of[idx], c) for idx, c in x.terms.items()))
    sums.pop(part.zero_class_id, None)
    return not sums


def is_minimal_sg_trace(G: FiniteSemigroup, delta: CentralMap) -> bool:
    """Linear independence of the values over the distinct nonzero classes."""
    values = [delta.values[r] for r in sim_classes(G).representatives()]
    if not any(isinstance(v, FreeVector) for v in values):
        # the values form one column, whose rank is at most 1: it equals the
        # number of classes only for no class, or one class with a nonzero value
        return not values or (len(values) == 1 and bool(values[0]))
    column = {}  # FreeVector keys need not be ordered: number them
    rows = [
        {column.setdefault(k, len(column)): c for k, c in v.terms.items()}
        for v in values
    ]
    return rank(rows) == len(values)


def admits_normalized_minimal(G: FiniteSemigroup) -> bool:
    """True iff there is at most one nonzero class."""
    return len(sim_classes(G).nonzero_class_ids) <= 1
