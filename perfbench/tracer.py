"""Per-module tracing installed from outside lpatrace.

`Tracer.install` replaces each listed public function of lpatrace, in every
lpatrace namespace that binds it, with a wrapper; `Tracer.uninstall` puts
the originals back.  A span wrapper records (name, start, end, parent,
query) in memory; a count wrapper only counts calls, so its time stays in
the caller's self time.  Wrappers record nothing while `active` is false,
which keeps set-up and reference checks out of the numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

_FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__truediv__")

# (name, module, attribute, kind); "Class.method" attributes are patched on
# the class, plain functions in every lpatrace module that binds them.
TARGETS = (
    *(
        (f"cli.{cmd}", "lpatrace.cli", f"cmd_{cmd}", SPAN)
        for cmd in ("analyze", "classes", "eval", "decompose", "sg")
    ),
    ("graphs.parse_graph", "lpatrace.graphs", "parse_graph", SPAN),
    ("graphs.cycles", "lpatrace.graphs", "cycles", SPAN),
    ("graphs.cycle_with_exit_witness", "lpatrace.graphs", "cycle_with_exit_witness", SPAN),
    ("graphs.strongly_connected_components", "lpatrace.graphs",
     "strongly_connected_components", COUNT),
    ("graphs.closed_paths_up_to", "lpatrace.graphs", "closed_paths_up_to", SPAN),
    ("graphs.paths_into", "lpatrace.graphs", "paths_into", SPAN),
    ("gis.gis_mul", "lpatrace.gis", "gis_mul", COUNT),
    ("gis.classify_eq", "lpatrace.gis", "classify_eq", COUNT),
    ("gis.approx_canonical", "lpatrace.gis", "approx_canonical", COUNT),
    ("path_algebras.mul", "lpatrace.path_algebras", "AlgebraElement.__mul__", SPAN),
    ("path_algebras.normalize_terms", "lpatrace.path_algebras",
     "PathAlgebra.normalize_terms", SPAN),
    ("path_algebras.rewrite_step", "lpatrace.path_algebras", "PathAlgebra.rewrite_step", COUNT),
    ("path_algebras.parse_element", "lpatrace.path_algebras", "parse_element", SPAN),
    ("path_algebras.alg_star", "lpatrace.path_algebras", "alg_star", SPAN),
    ("traces.trace_eval", "lpatrace.traces", "trace_eval", SPAN),
    ("traces.validate_trace_spec", "lpatrace.traces", "validate_trace_spec", SPAN),
    ("traces.vertex_trace_space", "lpatrace.traces", "vertex_trace_space", SPAN),
    ("traces.faithful_trace_exists", "lpatrace.traces", "faithful_trace_exists", SPAN),
    ("structure.decompose", "lpatrace.structure", "decompose", SPAN),
    ("structure.phi", "lpatrace.structure", "phi", SPAN),
    ("structure.expand_monomial", "lpatrace.structure", "Decomposition.expand_monomial", COUNT),
    *(
        (f"semigroups.{fn}", "lpatrace.semigroups", fn, SPAN)
        for fn in ("build_semigroup", "sim_classes", "minimal_trace",
                   "in_commutator_span", "is_minimal_sg_trace", "sim_witness_chain")
    ),
    ("linalg.nullspace", "lpatrace.linalg", "nullspace", SPAN),
    ("linalg.rank", "lpatrace.linalg", "rank", SPAN),
    *(("scalars.ops", "lpatrace.scalars", f"FieldElem.{op}", COUNT) for op in _FIELD_OPS),
)

# Span targets whose result length is summed as a work count.
_SIZED = {"graphs.closed_paths_up_to"}

_W = ("algebra_session", "cli_reports", "semigroup_tables")
ALGEBRA, CLI, SG = ((w,) for w in _W)

# (metric, unit, better, statistic, target, workloads it must be nonzero on).
# Statistics: self_ms, calls and items are per query; median_ms is the
# median span duration over calls.  README.md gives the end-to-end metric
# each one moves.
PER_LAYER = (
    *(
        (f"cli.{cmd}.ms", "ms", "lower", "median_ms", f"cli.{cmd}", CLI)
        for cmd in ("analyze", "classes", "eval", "decompose", "sg")
    ),
    ("cli.output_bytes", "bytes/query", "lower", "output_bytes", None, CLI),
    ("graphs.parse_graph.self_ms", "ms/query", "lower", "self_ms", "graphs.parse_graph", CLI),
    ("graphs.cycles.self_ms", "ms/query", "lower", "self_ms", "graphs.cycles", CLI),
    ("graphs.cycles.calls", "calls/query", "lower", "calls", "graphs.cycles", CLI),
    ("graphs.cycle_with_exit_witness.self_ms", "ms/query", "lower", "self_ms",
     "graphs.cycle_with_exit_witness", CLI),
    ("graphs.strongly_connected_components.calls", "calls/query", "lower", "calls",
     "graphs.strongly_connected_components", CLI),
    ("graphs.closed_paths_up_to.self_ms", "ms/query", "lower", "self_ms",
     "graphs.closed_paths_up_to", CLI),
    ("graphs.closed_paths_up_to.paths", "paths/query", "lower", "items",
     "graphs.closed_paths_up_to", CLI),
    ("graphs.paths_into.self_ms", "ms/query", "lower", "self_ms", "graphs.paths_into", CLI),
    ("gis.gis_mul.calls", "calls/query", "lower", "calls", "gis.gis_mul", ALGEBRA),
    ("gis.classify_eq.calls", "calls/query", "lower", "calls", "gis.classify_eq", ALGEBRA + CLI),
    ("gis.approx_canonical.calls", "calls/query", "lower", "calls", "gis.approx_canonical", CLI),
    ("path_algebras.mul.self_ms", "ms/query", "lower", "self_ms", "path_algebras.mul", ALGEBRA),
    ("path_algebras.mul.calls", "calls/query", "lower", "calls", "path_algebras.mul", ALGEBRA),
    ("path_algebras.normalize_terms.self_ms", "ms/query", "lower", "self_ms",
     "path_algebras.normalize_terms", ALGEBRA + CLI),
    ("path_algebras.rewrite_step.calls", "calls/query", "lower", "calls",
     "path_algebras.rewrite_step", ALGEBRA),
    ("path_algebras.parse_element.self_ms", "ms/query", "lower", "self_ms",
     "path_algebras.parse_element", ALGEBRA + CLI),
    ("path_algebras.alg_star.self_ms", "ms/query", "lower", "self_ms",
     "path_algebras.alg_star", ALGEBRA),
    ("traces.trace_eval.self_ms", "ms/query", "lower", "self_ms", "traces.trace_eval",
     ALGEBRA + CLI),
    ("traces.validate_trace_spec.calls", "calls/query", "lower", "calls",
     "traces.validate_trace_spec", ALGEBRA + CLI),
    ("traces.validate_trace_spec.self_ms", "ms/query", "lower", "self_ms",
     "traces.validate_trace_spec", ALGEBRA + CLI),
    ("traces.vertex_trace_space.self_ms", "ms/query", "lower", "self_ms",
     "traces.vertex_trace_space", CLI),
    ("traces.faithful_trace_exists.self_ms", "ms/query", "lower", "self_ms",
     "traces.faithful_trace_exists", CLI),
    ("structure.decompose.self_ms", "ms/query", "lower", "self_ms", "structure.decompose", CLI),
    ("structure.phi.self_ms", "ms/query", "lower", "self_ms", "structure.phi", ALGEBRA),
    ("structure.expand_monomial.calls", "calls/query", "lower", "calls",
     "structure.expand_monomial", ALGEBRA),
    ("semigroups.build_semigroup.self_ms", "ms/query", "lower", "self_ms",
     "semigroups.build_semigroup", SG + CLI),
    ("semigroups.sim_classes.self_ms", "ms/query", "lower", "self_ms",
     "semigroups.sim_classes", SG + CLI),
    ("semigroups.sim_classes.calls", "calls/query", "lower", "calls",
     "semigroups.sim_classes", SG + CLI),
    ("semigroups.minimal_trace.self_ms", "ms/query", "lower", "self_ms",
     "semigroups.minimal_trace", SG),
    ("semigroups.in_commutator_span.self_ms", "ms/query", "lower", "self_ms",
     "semigroups.in_commutator_span", SG),
    ("semigroups.is_minimal_sg_trace.self_ms", "ms/query", "lower", "self_ms",
     "semigroups.is_minimal_sg_trace", SG),
    ("semigroups.sim_witness_chain.self_ms", "ms/query", "lower", "self_ms",
     "semigroups.sim_witness_chain", SG),
    ("linalg.nullspace.self_ms", "ms/query", "lower", "self_ms", "linalg.nullspace", CLI),
    ("linalg.rank.self_ms", "ms/query", "lower", "self_ms", "linalg.rank", SG),
    ("scalars.ops", "ops/query", "lower", "calls", "scalars.ops", _W),
    ("tracing.queries_per_s_off", "1/s", "higher", "qps_off", None, _W),
    ("tracing.queries_per_s_on", "1/s", "higher", "qps_on", None, _W),
)


def _lpatrace_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "lpatrace" or n.startswith("lpatrace.")]


def _binding_sites(module: str, attr: str):
    """(owner, name, original) for every place the target is bound."""
    mod = importlib.import_module(module)
    cls_name, _, member = attr.rpartition(".")
    if cls_name:
        owner = getattr(mod, cls_name)
        return [(owner, member, owner.__dict__[member])]
    original = getattr(mod, attr)
    return [
        (m, key, original)
        for m in _lpatrace_modules()
        for key, val in list(vars(m).items())
        if val is original
    ]


class Tracer:
    def __init__(self):
        self.active = False
        self.query = -1
        self.spans = []  # [name, start, end, parent index, query]
        self.calls = Counter()
        self.items = Counter()
        self._stack = []
        self._undo = []

    def install(self) -> None:
        for module in {t[1] for t in TARGETS}:
            importlib.import_module(module)
        for name, module, attr, kind in TARGETS:
            sites = _binding_sites(module, attr)
            wrap = self._span if kind == SPAN else self._count
            wrapper = wrap(name, sites[0][2])
            for owner, key, original in sites:
                self._undo.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        sized = name in _SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            record = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter()
            if sized:
                self.items[name] += len(result)
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, queries: int, output_bytes: int, scales) -> dict:
        """The per-layer metrics this process measured, normalized per query.

        `scales[q]` converts the times of query q to the reference host
        speed (see speed.py).  The tracing.* metrics compare two processes;
        run.py adds them.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_ms = Counter()
        durations = defaultdict(list)
        for (name, start, end, _, query), inner in zip(self.spans, children):
            self_ms[name] += (end - start - inner) * 1e3 * scales[query]
            durations[name].append((end - start) * 1e3 * scales[query])
        per_query = {
            "self_ms": lambda t: self_ms[t] / queries,
            "calls": lambda t: self.calls[t] / queries,
            "items": lambda t: self.items[t] / queries,
            "median_ms": lambda t: statistics.median(durations[t]) if durations[t] else 0.0,
            "output_bytes": lambda t: output_bytes / queries,
        }
        return {
            metric: {"value": per_query[stat](target), "unit": unit}
            for metric, unit, _, stat, target, _ in PER_LAYER
            if stat in per_query
        }
