"""Which public functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Each layer is a module of the program.  A layer's time is the self time of
its spans: the span minus its children on the same thread (see
:func:`lbpbench.tracer.self_times`).
"""

from __future__ import annotations

import re
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Sequence

from lbpbench.common import Metrics
from lbpbench.tracer import Recorder, Span, self_times

_BID = re.compile(r'"bid":(\d+)')
_OP = re.compile(r'"op":"(\w+)"')

KERNELS = ("kernels.spmm", "kernels.block_matmul", "kernels.reduce")


def targets(recorder: Recorder) -> list:
    """``(owner, attribute, span name, before, after)`` for every wrapped
    public function; the hooks annotate spans with what the metrics need."""
    from repro.core.sbp import SBP
    from repro.engine import batch, kernels, plan, sbp_plan
    from repro.graphs.graph import Graph
    from repro.relational.backends.base import SQLBackend
    from repro.service.coalescer import MicroBatcher
    from repro.service.protocol import ServiceSession
    from repro.service.service import PropagationService

    seen = weakref.WeakSet()

    def request_line(span, args, kwargs, result):
        line = args[1] if len(args) > 1 else kwargs["line"]
        bid, op = _BID.search(line), _OP.search(line)
        span.info["bid"] = int(bid.group(1)) if bid else None
        span.info["op"] = op.group(1) if op else None
        span.info["bytes"] = len(result[0])
        return result

    def new_plan(span, args, kwargs, result):
        span.info["new"] = result not in seen
        seen.add(result)
        return result

    def coalesced_run(span, args, kwargs):
        run = args[3] if len(args) > 3 else kwargs.pop("run")

        def batch_size(inner, run_args, run_kwargs):
            inner.info["batch"] = len(run_args[0])
            return run_args, run_kwargs

        wrapped = recorder.wrap("engine.dispatch", run, before=batch_size)
        return (*args[:3], wrapped), kwargs

    def sweep_counts(span, args, kwargs, result):
        span.info["iterations"] = [r.iterations for r in result]
        return result

    def spmm_flops(span, args, kwargs):
        span.info["flops"] = 2.0 * args[0].nnz * args[1].shape[1]
        return args, kwargs

    def sql_iterations(span, args, kwargs, result):
        span.info["iterations"] = result.iterations
        return result

    def consume(span, args, kwargs, result):
        return iter(list(result))

    return [
        (ServiceSession, "handle_line", "protocol.handle_line", None,
         request_line),
        (PropagationService, "query", "service.query", None, None),
        (PropagationService, "update", "service.update", None, None),
        (MicroBatcher, "submit", "coalescer.submit", coalesced_run, None),
        (plan, "get_plan", "plan.get_plan", None, new_plan),
        (sbp_plan, "get_sbp_plan", "plan.get_sbp_plan", None, new_plan),
        (batch, "run_batch", "batch.run_batch", None, sweep_counts),
        (kernels, "spmm", "kernels.spmm", spmm_flops, None),
        (kernels, "block_matmul", "kernels.block_matmul", None, None),
        (kernels, "max_abs_change_per_query", "kernels.reduce", None, None),
        (sbp_plan, "run_sbp_batch", "sbp.run_sbp_batch", None, None),
        (sbp_plan, "repair_explicit_beliefs", "sbp.repair", None, None),
        (sbp_plan, "repair_added_edges", "sbp.repair", None, None),
        (SBP, "add_edges", "views.repair", None, None),
        (SBP, "add_explicit_beliefs", "views.repair", None, None),
        (Graph, "with_edges_added", "graphs.with_edges_added", None, None),
        (SQLBackend, "load_graph", "relational.load_graph", None, None),
        (SQLBackend, "run_linbp", "relational.run_linbp", None,
         sql_iterations),
        (SQLBackend, "run_sbp", "relational.run_sbp", None, None),
        (SQLBackend, "top_labels", "relational.top_labels", None, consume),
    ]


def _has_ancestor(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def _per_root(spans: Sequence[Span], value: Callable[[Span], float]
              ) -> List[float]:
    """Per root span, the summed ``value`` of the given spans under it."""
    totals: Dict[int, float] = defaultdict(float)
    for span in spans:
        totals[id(span.root)] += value(span)
    return list(totals.values())


def layer_metrics(spans: Sequence[Span], metrics: Metrics) -> None:
    """Add every per-layer metric whose spans occur in ``spans``."""
    own = self_times(spans)
    named: Dict[str, List[Span]] = defaultdict(list)
    parents_of: Dict[str, set] = defaultdict(set)
    for span in spans:
        named[span.name].append(span)
        if span.parent is not None:
            parents_of[span.name].add(id(span.parent))

    def ms_self(name):
        return [own[id(s)] * 1e3 for s in named[name]]

    def ms(name):
        return [s.duration * 1e3 for s in named[name]]

    queries = [s for s in named["protocol.handle_line"]
               if s.info.get("op") == "query"]
    metrics.median("protocol.self_ms_p50",
                   [own[id(s)] * 1e3 for s in queries], "ms")
    metrics.median("protocol.reply_bytes_p50",
                   [s.info["bytes"] for s in queries], "bytes")

    metrics.median("service.query_self_ms_p50", ms_self("service.query"),
                   "ms")
    if named["service.query"]:
        submitted = parents_of["coalescer.submit"]
        hits = sum(1 for s in named["service.query"]
                   if id(s) not in submitted)
        metrics.add("service.cache_hit_ratio",
                    hits / len(named["service.query"]), "ratio",
                    f"n={len(named['service.query'])}")
    metrics.median("service.update_ms_p50", ms("service.update"), "ms")

    metrics.median("coalescer.wait_ms_p50", ms_self("coalescer.submit"),
                   "ms")
    sizes = [s.info["batch"] for s in named["engine.dispatch"]]
    if sizes:
        metrics.add("coalescer.batch_size_mean", sum(sizes) / len(sizes),
                    "queries", f"n={len(sizes)}")

    builds = [s for s in named["plan.get_plan"] if s.info["new"]]
    if named["plan.get_plan"]:
        metrics.add("plan.builds", len(builds), "count")
        metrics.median("plan.build_ms_p50",
                       [s.duration * 1e3 for s in builds], "ms")
    if named["plan.get_sbp_plan"]:
        metrics.add("sbp.plan_builds",
                    sum(1 for s in named["plan.get_sbp_plan"]
                        if s.info["new"]), "count")

    runs = named["batch.run_batch"]
    if runs:
        metrics.median("batch.run_ms_p50", ms("batch.run_batch"), "ms")
        counts = [n for s in runs for n in s.info["iterations"]]
        metrics.add("batch.sweeps_per_query", sum(counts) / len(counts),
                    "sweeps", f"n={len(counts)}")
        slots = sum(max(s.info["iterations"]) * len(s.info["iterations"])
                    for s in runs)
        metrics.add("batch.live_column_ratio", sum(counts) / slots, "ratio")
        in_batch = {name: [s for s in named[name]
                           if _has_ancestor(s, "batch.run_batch")]
                    for name in KERNELS}
        spmm_s = sum(s.duration for s in in_batch["kernels.spmm"])
        metrics.add("kernels.spmm_s", spmm_s, "s")
        metrics.add("kernels.gemm_s", sum(
            s.duration for s in in_batch["kernels.block_matmul"]), "s")
        metrics.add("kernels.reduce_s", sum(
            s.duration for s in in_batch["kernels.reduce"]), "s")
        metrics.add("kernels.spmm_share",
                    spmm_s / sum(s.duration for s in runs), "ratio")
        flops = sum(s.info["flops"] for s in in_batch["kernels.spmm"])
        metrics.add("kernels.spmm_gflops", flops / spmm_s / 1e9,
                    "GFLOP/s", "computed as 2*nnz*width/time")

    metrics.median("sbp.run_ms_p50", ms("sbp.run_sbp_batch"), "ms")
    metrics.median("sbp.repair_ms_p50",
                   _per_root(named["sbp.repair"], lambda s: s.duration),
                   "ms", scale=1e3)
    metrics.median("views.repair_ms_p50",
                   _per_root(named["views.repair"], lambda s: own[id(s)]),
                   "ms", scale=1e3)
    metrics.median("graphs.rebuild_ms_p50", ms("graphs.with_edges_added"),
                   "ms")

    metrics.median("relational.load_s",
                   [s.duration for s in named["relational.load_graph"]], "s")
    metrics.median("relational.linbp_ms_per_iter",
                   [s.duration * 1e3 / max(1, s.info["iterations"])
                    for s in named["relational.run_linbp"]], "ms")
    metrics.median("relational.sbp_s",
                   [s.duration for s in named["relational.run_sbp"]], "s")
    metrics.median("relational.top_labels_ms", ms("relational.top_labels"),
                   "ms")


def request_paths(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per wire request (keyed by its ``bid``), the self time in seconds of
    each layer on its path: protocol, service, coalescer and the engine
    call it led, plus the whole ``handle_line``."""
    own = self_times(spans)
    paths: Dict[int, Dict[str, float]] = {}
    by_root: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        layer = {"service.query": "service", "service.update": "service",
                 "coalescer.submit": "coalescer"}.get(span.name)
        if layer is not None:
            by_root[id(span.root)][layer] += own[id(span)]
        elif span.name == "engine.dispatch" and span.parent is not None \
                and span.parent.name == "coalescer.submit":
            by_root[id(span.root)]["engine"] += span.duration
    for span in spans:
        bid = span.info.get("bid") if span.name == "protocol.handle_line" \
            else None
        if bid is None:
            continue
        layers = by_root.get(id(span), {})
        paths[bid] = {"handle_line": span.duration,
                      "protocol": own[id(span)],
                      "service": layers.get("service", 0.0),
                      "coalescer": layers.get("coalescer", 0.0),
                      "engine": layers.get("engine", 0.0)}
    return paths

