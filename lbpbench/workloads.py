"""The two workloads, each a serving phase plus an in-database phase.

Every workload runs both phases, so that each reports every metric of
``BENCHMARK.json``, but in different proportions: each layer does most of
its work in one workload and little in the other.

* ``serve_mixed``: the serving phase (:mod:`lbpbench.serve_mixed`) on
  Kronecker suite #3 for ``--seconds``, then a short in-database phase
  (:mod:`lbpbench.sql_label`) on suite #1.
* ``sql_label``: the in-database phase on suite #2 for ``--seconds``, then
  a short serving phase on the same graph.

``setup_s``, ``peak_rss_mb`` and ``bench.trace_overhead`` are the main
phase's figures.  In either workload the query and update metrics come
from the serving phase and ``batch_s`` from the in-database phase.

The host's speed drifts over seconds to minutes, so an untraced run
splits the in-database phase into two halves, one before and one after
the serving phase, each on its own label sets.  A traced run takes the
main phase, untraced then traced, and then the side phase, traced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from lbpbench import layers, serve_mixed, sql_label
from lbpbench.common import Metrics, inputs_ready, suite_workload


@dataclass(frozen=True)
class Workload:
    main: str             # "serve" or "sql": the phase that dominates
    serve_index: int      # Kronecker suite graph of the serving phase
    serve_share: float    # its window, as a share of --seconds
    update_rate: float    # its updates per second
    sql_index: int        # Kronecker suite graph of the in-database phase
    sql_share: float      # its summed job time, as a share of --seconds
    sql_min_jobs: int


WORKLOADS = {
    # Jobs on #1 take ~0.5 s and follow the host's speed more than the
    # serving metrics do, so they get half a run's length.
    "serve_mixed": Workload("serve", 3, 1.0, serve_mixed.UPDATE_RATE,
                            1, 1 / 2, 16),
    # The short serving window still sends MIN_UPDATES updates.
    "sql_label": Workload("sql", 2, 1 / 3, 12.0,
                          2, 1.0, sql_label.MIN_JOBS),
}


def run(name: str, seed: int, seconds: float, trace: bool
        ) -> Tuple[Metrics, int, int]:
    """Run workload ``name``; return its metrics, attempted and failed."""
    spec = WORKLOADS[name]
    inputs = serve_mixed.Inputs(seed, seconds * spec.serve_share,
                                spec.serve_index, spec.update_rate)
    sql_graph = suite_workload(spec.sql_index)
    inputs_ready()

    serving_main = spec.main == "serve"

    def serve(main: bool) -> dict:
        if main:
            setups = (1, 0) if trace else (serve_mixed.SETUPS_BEFORE,
                                           serve_mixed.SETUPS_AFTER)
        else:
            setups = None if trace else (1, 0)
        return serve_mixed.phase(inputs, seed, setups, trace)

    def in_database(main: bool, block: int = 0, share: float = 1.0) -> dict:
        return sql_label.phase(
            seed, seconds * spec.sql_share * share, plain=main or not trace,
            trace=trace, suite_index=spec.sql_index,
            min_jobs=math.ceil(spec.sql_min_jobs * share),
            setups_per_break=sql_label.SETUPS_PER_BREAK if main else 0,
            workload=sql_graph, block=block)

    if not trace:
        first = in_database(not serving_main, 0, 0.5)
        served = serve(serving_main)
        second = in_database(not serving_main, 1, 0.5)
        stored = {"plain": sql_label.merge(first["plain"], second["plain"]),
                  "traced": None}
    elif serving_main:
        served = serve(True)
        stored = in_database(False)
    else:
        stored = in_database(True)
        served = serve(False)
    main = served if serving_main else stored
    passes = [p for phase in (served, stored) for p in phase.values() if p]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    metrics = Metrics()
    if not trace:
        metrics.median("setup_s", main["plain"]["setup_times"
                                                if serving_main
                                                else "setups"], "s")
        serve_mixed.end_to_end(served["plain"], metrics)
        metrics.median("batch_s", stored["plain"]["jobs"], "s")
        metrics.add("peak_rss_mb", main["plain"]["rss"], "MB")
        return metrics, attempted, failed

    layers.layer_metrics(served["traced"]["spans"]
                         + stored["traced"]["spans"], metrics)
    serve_mixed.serving_layers(served["traced"], metrics)
    metrics.add("aserve.rejected",
                sum(p["overloaded"] for p in served.values() if p), "count")
    module = serve_mixed if serving_main else sql_label
    metrics.add("bench.trace_overhead",
                module.throughput(main["traced"])
                / module.throughput(main["plain"]), "ratio",
                f"traced / untraced {name} throughput")
    return metrics, attempted, failed
