"""The in-database phase: labelling on SQLite.

It is the main phase of the ``sql_label`` workload (Kronecker suite #2, 729
nodes) and a short side phase of ``serve_mixed`` on suite #1 (see
:mod:`lbpbench.workloads`).  Each job labels one fresh label set through
``repro.relational.backends.get_backend("sqlite")``:

* set-up: ``get_backend`` plus ``load_graph``;
* the job: ``run_linbp`` to convergence, ``run_sbp`` and ``top_labels``.

Jobs repeat until their summed job time reaches the phase's seconds.
Before each job, and again between its ``run_linbp`` and ``run_sbp``, come
:data:`SETUPS_PER_BREAK` extra timed set-ups of throwaway backends.  Each
result is checked against ``run_batch`` / ``run_sbp_batch`` after its job,
outside the timed sections.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from lbpbench import check
from lbpbench.common import (
    label_set,
    peak_rss_mb,
    percentile,
    suite_workload,
)

SUITE_INDEX = 2
#: Fewest jobs per run, however long each one takes.
MIN_JOBS = 3
#: Extra set-ups (``get_backend`` plus ``load_graph``) at each break.  The
#: host switches between a fast and a slow state every few seconds, and a
#: set-up takes ~1.6x longer in the slow one, so set-ups are spread over
#: the run, two breaks per job, rather than taken in one burst; set-up time
#: is the median over these and the jobs' own set-ups.
SETUPS_PER_BREAK = 2


def _set_up(graph, coupling, explicit):
    """``get_backend`` plus ``load_graph``; return the backend and seconds."""
    from repro.relational.backends import get_backend

    start = time.perf_counter()
    backend = get_backend("sqlite")
    try:
        backend.load_graph(graph, coupling, explicit)
    except BaseException:
        backend.close()
        raise
    return backend, time.perf_counter() - start


def _throwaway_set_ups(graph, coupling, rng, count: int) -> list:
    """Time ``count`` set-ups of backends closed at once."""
    times = []
    for _ in range(count):
        backend, elapsed = _set_up(graph, coupling,
                                   label_set(graph.num_nodes, rng))
        backend.close()
        times.append(elapsed)
    return times


def run_pass(graph, coupling, seed: int, seconds: float,
             recorder=None, min_jobs: int = MIN_JOBS,
             setups_per_break: int = SETUPS_PER_BREAK,
             suite_index: int = SUITE_INDEX, block: int = 0) -> dict:
    from repro.engine import get_plan, run_batch, run_sbp_batch

    muted = recorder.mute if recorder is not None else nullcontext
    rng = np.random.default_rng([seed, suite_index, block])
    setups, jobs = [], []
    attempted = failed = 0
    while sum(jobs) < seconds or len(jobs) < min_jobs:
        setups += _throwaway_set_ups(graph, coupling, rng,
                                     setups_per_break)
        explicit = label_set(graph.num_nodes, rng)
        backend, elapsed = _set_up(graph, coupling, explicit)
        setups.append(elapsed)
        try:
            start = time.perf_counter()
            linbp = backend.run_linbp()
            job = time.perf_counter() - start
            setups += _throwaway_set_ups(graph, coupling, rng,
                                     setups_per_break)
            start = time.perf_counter()
            single_pass = backend.run_sbp()
            labels = list(backend.top_labels())
            jobs.append(job + time.perf_counter() - start)
        finally:
            backend.close()
        with muted():
            expected_linbp = run_batch(get_plan(graph, coupling),
                                       [explicit])[0].beliefs
            expected_sbp = run_sbp_batch(graph, coupling,
                                         [explicit])[0].beliefs
        attempted += 3
        failed += not check.beliefs_ok(linbp.beliefs, expected_linbp)
        failed += not check.beliefs_ok(single_pass.beliefs, expected_sbp)
        failed += not check.labels_ok(labels, expected_sbp)
    return {"setups": setups, "jobs": jobs, "rss": peak_rss_mb(),
            "attempted": attempted, "failed": failed}


def phase(seed: int, seconds: float, plain: bool, trace: bool,
          suite_index: int = SUITE_INDEX, min_jobs: int = MIN_JOBS,
          setups_per_break: int = SETUPS_PER_BREAK, workload=None,
          block: int = 0) -> dict:
    """An untraced pass (unless ``plain`` is false), then, with ``trace``,
    a traced pass of the same jobs under the benchmark's span recorder.
    Returns ``{"plain": ..., "traced": ...}``; a traced pass carries its
    recorded ``spans``.  The graph is the ``(graph, coupling)`` pair of
    suite graph ``suite_index``; ``workload`` overrides it.  Each ``block``
    number draws its own label sets."""
    from lbpbench import layers, tracer

    graph, coupling = workload or suite_workload(suite_index)
    options = {"min_jobs": min_jobs, "setups_per_break": setups_per_break,
               "suite_index": suite_index, "block": block}
    result: dict = {"plain": None, "traced": None}
    if plain:
        result["plain"] = run_pass(graph, coupling, seed, seconds, **options)
    if trace:
        recorder = tracer.Recorder()
        patches = tracer.install(recorder, layers.targets(recorder))
        try:
            traced = run_pass(graph, coupling, seed, seconds, recorder,
                              **options)
        finally:
            tracer.uninstall(patches)
        traced["spans"] = recorder.spans
        result["traced"] = traced
    return result


def merge(first: dict, second: dict) -> dict:
    """Two untraced passes as one; memory is the first one's peak."""
    return {"setups": first["setups"] + second["setups"],
            "jobs": first["jobs"] + second["jobs"], "rss": first["rss"],
            "attempted": first["attempted"] + second["attempted"],
            "failed": first["failed"] + second["failed"]}


def throughput(one_pass: dict) -> float:
    """Jobs per second at the median job time of a pass."""
    return 1.0 / percentile(one_pass["jobs"], 50)
