"""Objects shared across threads: every result equals a serial run on
fresh objects, while the threads fill the memos and write-once caches
together (README: "objects can be shared freely across threads")."""

import copy
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product

from lpatrace import graphs
from lpatrace.gis import MonPair
from lpatrace.graphs import _MEMO_CAP, edge_path, parse_graph, vertex_path
from lpatrace.path_algebras import (
    COHN,
    LEAVITT,
    PathAlgebra,
    alg_star,
    format_element,
    parse_element,
)
from lpatrace.scalars import CONJUGATION, IDENTITY, QI, Q
from lpatrace.semigroups import parse_cayley, sim_classes, sim_witness_chain
from lpatrace.structure import decompose, phi
from lpatrace.traces import trace_eval, trace_spec

from conftest import (
    GRAPH_TEXTS,
    SEMIGROUPS,
    cayley_text,
    endo4_semigroup,
    fresh_rng,
    random_element,
    rose,
)

THREADS = 8


def _in_threads(work):
    """[work(k) for k in range(THREADS)], each call in its own thread, all
    released together by a barrier, with the interpreter switching threads
    every microsecond."""
    start = threading.Barrier(THREADS)

    def run(k):
        start.wait(timeout=30)
        return work(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(run, k) for k in range(THREADS)]
            return [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def _rotated(jobs, k):
    """jobs from position k on, then the rest: each thread starts elsewhere."""
    return jobs[k:] + jobs[:k]


def _semigroup_results(G, pairs):
    return sim_classes(G), [sim_witness_chain(G, g, h) for g, h in pairs]


def _algebra_results(A, dec, jobs):
    out = []
    for s, t in jobs:
        x, y = parse_element(s, A), parse_element(t, A)
        xy, yx = x * y, y * x
        out.append((s, t, *(list(z.terms.items()) for z in (x, y, xy, yx, phi(dec, xy)))))
    return out


def test_shared_objects_give_serial_results_under_threads():
    rng = fresh_rng(19)
    # semigroups: one packed (28 elements) and one wide (257), parsed from
    # text, and a copy of each, whose `_flat` and `_gens` are still None
    texts = [cayley_text(SEMIGROUPS["endo3"].table), cayley_text(endo4_semigroup().table)]
    parsed = [parse_cayley(text) for text in texts]
    shared = parsed + [copy.copy(G) for G in parsed]
    assert all(G._sim is None for G in shared)
    assert all(G._flat is None and G._gens is None for G in shared[2:])
    pair_lists = []
    for G in shared:
        classes = sim_classes(parse_cayley(cayley_text(G.table))).classes
        pair_lists.append([
            tuple(rng.sample(c, 2)) for c in rng.sample([c for c in classes if len(c) > 1], 3)
        ])
    # a Leavitt algebra and its decomposition over one graph, with operands
    # written out by a scratch context, so the shared ones start cold
    text = GRAPH_TEXTS["mixed"]
    scratch = PathAlgebra(parse_graph(text), QI, CONJUGATION, LEAVITT)
    jobs = [(format_element(random_element(scratch, rng)),
             format_element(random_element(scratch, rng))) for _ in range(12)]
    g = parse_graph(text)
    A = PathAlgebra(g, QI, CONJUGATION, LEAVITT)
    dec = decompose(g)

    def fresh_results():
        fresh_g = parse_graph(text)
        fresh_A = PathAlgebra(fresh_g, QI, CONJUGATION, LEAVITT)
        sgs = [_semigroup_results(parse_cayley(cayley_text(G.table)), pairs)
               for G, pairs in zip(shared, pair_lists)]
        return sgs, _algebra_results(fresh_A, decompose(fresh_g), jobs)

    def work(k):  # every thread meets each cold semigroup at once
        sgs = [_semigroup_results(G, pairs) for G, pairs in zip(shared, pair_lists)]
        return sgs, _algebra_results(A, dec, _rotated(jobs, k))

    serial_sgs, serial_algebra = fresh_results()
    for k, (sgs, algebra) in enumerate(_in_threads(work)):
        assert sgs == serial_sgs
        assert algebra == _rotated(serial_algebra, k)
    assert [G._sim for G in shared] == [part for part, _ in serial_sgs]
    assert shared[2]._flat == parsed[0]._flat and shared[3]._flat is None
    assert g._paths and A._expansions and A._scalars and dec._expand_cache


def test_threads_fill_one_rotation_memo_past_its_cap():
    # the closing words of length 8 on rose3, 3^8 = 6,561 of them, plain
    # and starred, through `trace_eval` on one shared graph: thread k takes
    # 12 of the 81 chunks of 81 words from chunk 10k on, so neighbours
    # share two chunks and together they meet every word; they fill the
    # rotation memo past its cap together, each result equals a serial run
    # on a fresh graph, and the memo overshoots the cap by at most one
    # entry per racing thread
    rng = fresh_rng(43)
    words = list(product(("e0", "e1", "e2"), repeat=8))
    values = {}  # a distinct value for each class
    for word in words:
        values.setdefault(min(word[i:] + word[:i] for i in range(8)), len(values) + 1)
    jobs = [(words[i:i + 81], [rng.randint(1, 9) for _ in range(81)])
            for i in range(0, len(words), 81)]

    g = rose(3)
    spec = trace_spec(g, Q, IDENTITY, cycle_values=values,
                      cycle_star_values={w: -c for w, c in values.items()})

    def results(graph, jobs):
        A = PathAlgebra(graph, Q, IDENTITY, COHN)
        v = vertex_path(graph, "v")
        out = []
        for chunk, coeffs in jobs:
            x = A.from_terms({MonPair(edge_path(graph, w), v): c for w, c in zip(chunk, coeffs)})
            out.append((trace_eval(graph, spec, x), trace_eval(graph, spec, alg_star(x))))
        return out

    def share(items, k):
        return _rotated(items, 10 * k)[:12]

    serial = results(rose(3), jobs)
    assert not g._rotations
    for k, got in enumerate(_in_threads(lambda k: results(g, share(jobs, k)))):
        assert got == share(serial, k)
    assert _MEMO_CAP <= len(g._rotations) <= _MEMO_CAP + THREADS


def test_threads_fill_one_expansion_memo_past_its_cap(monkeypatch):
    # under a cap of 64, the 164 canonical monomials l^a (l^b)* of the
    # one-loop graph, one of a and b zero, through `phi` on one shared
    # decomposition: thread k takes 40 of them from monomial 20k on, so
    # together they meet every one; each result equals a serial run on a
    # fresh decomposition, and the memo overshoots the cap by at most one
    # entry per racing thread
    monkeypatch.setattr(graphs, "_MEMO_CAP", 64)

    def monomials(g):
        A = PathAlgebra(g, Q, IDENTITY, LEAVITT)
        powers = [A.path(["e"] * k) for k in range(1, 83)]
        return ([A.vertex("v")] + powers + [alg_star(x) for x in powers])[:164]

    def share(items, k):
        return _rotated(items, 20 * k)[:40]

    fresh = parse_graph(GRAPH_TEXTS["one_loop"])
    fresh_dec = decompose(fresh)
    serial = [phi(fresh_dec, x).blocks for x in monomials(fresh)]
    g = parse_graph(GRAPH_TEXTS["one_loop"])
    dec, xs = decompose(g), monomials(g)
    for k, got in enumerate(_in_threads(lambda k: [phi(dec, x).blocks for x in share(xs, k)])):
        assert got == share(serial, k)
    assert 64 <= len(dec._expand_cache) <= 64 + THREADS
