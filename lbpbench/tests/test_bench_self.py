"""Self-tests of the benchmark: percentile rule, self time, checker,
input determinism and the untraced run's lack of wrappers.

Run with ``PYTHONPATH=src python -m pytest lbpbench/tests -q``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from lbpbench import check, common, layers, serve_mixed, sql_label, tracer


# ---------------------------------------------------------------------- #
# the percentile rule and printed sample counts
# ---------------------------------------------------------------------- #
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 90) == 90
    assert common.percentile(values, 99) == 99
    assert common.percentile([3.0], 99) == 3.0
    assert common.beyond(1000, 99) == 10
    assert common.beyond(999, 99) == 9
    assert common.beyond(100, 90) == 10


def test_tail_reported_only_with_ten_samples_beyond():
    metrics = common.Metrics()
    metrics.tail("short_p99", list(range(999)), 99, "ms")
    metrics.tail("long_p99", list(range(1000)), 99, "ms")
    metrics.median("p50", [1.0, 2.0, 3.0], "ms", scale=1e3)
    assert "short_p99" not in metrics.values
    assert metrics.values["long_p99"] == (989.0, "ms")
    assert metrics.values["p50"] == (2000.0, "ms")
    report = "\n".join(metrics.report_lines())
    assert "n=1000, 10 beyond" in report and "n=3" in report
    line = json.loads(common.result_line(True, 5, 0, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["p50"] == {"value": 2000.0, "unit": "ms"}


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def _span(name, start, end, parent=None, thread=1):
    span = tracer.Span(name, thread, start, parent)
    span.end = end
    return span


def test_self_time_merges_overlapping_children():
    parent = _span("parent", 0.0, 10.0)
    children = [_span("a", 1.0, 3.0, parent), _span("b", 2.0, 5.0, parent),
                _span("c", 7.0, 8.0, parent)]
    other_thread = _span("d", 5.0, 7.0, parent, thread=2)
    own = tracer.self_times([parent, *children, other_thread])
    assert own[id(parent)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[id(children[1])] == pytest.approx(3.0)


def test_union_length():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_recorder_nests_wrapped_calls():
    recorder = tracer.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    spans = {span.name: span for span in recorder.spans}
    assert spans["inner"].parent is spans["outer"]
    assert spans["inner"].root is spans["outer"]
    with recorder.mute():
        assert outer(1) == 4
    assert len(recorder.spans) == 2


def test_request_paths_add_up_to_handle_line():
    line = _span("protocol.handle_line", 0.0, 10.0)
    line.info.update(bid=7, op="query")
    query = _span("service.query", 1.0, 9.0, line)
    submit = _span("coalescer.submit", 2.0, 8.0, query)
    dispatch = _span("engine.dispatch", 3.0, 7.0, submit)
    path = layers.request_paths([line, query, submit, dispatch])[7]
    assert path["handle_line"] == 10.0
    assert path["protocol"] + path["service"] + path["coalescer"] \
        + path["engine"] == pytest.approx(10.0)


# ---------------------------------------------------------------------- #
# the checker
# ---------------------------------------------------------------------- #
def test_checker_labels_and_ties():
    beliefs = np.array([[0.3, 0.1, 0.0], [0.0, 0.0, 0.0],
                        [0.2, 0.2 + 1e-12, -0.4]])
    names = ["c1", "c2", "c3"]
    assert check.wire_labels_ok([[0, "c1"], [2, "c1"]], False, beliefs,
                                names)
    assert check.wire_labels_ok([[0, "c1"], [2, "c2"]], False, beliefs,
                                names)
    assert check.wire_labels_ok([[0, "c1"]], True, beliefs, names)
    assert not check.wire_labels_ok([[0, "c2"], [2, "c1"]], False, beliefs,
                                    names)
    assert not check.wire_labels_ok([[0, "c1"]], False, beliefs, names)
    assert not check.wire_labels_ok([[1, "c1"], [2, "c1"]], False, beliefs,
                                    names)
    assert check.labels_ok([(0, 0), (2, 1)], beliefs)
    assert not check.labels_ok([(0, 2), (2, 1)], beliefs)
    assert not check.labels_ok([(2, 1)], beliefs)
    # A row that cancels to noise ties every class with "no label".
    noise = np.array([[0.3, 0.1, 0.0], [1e-18, -1e-18, 0.0]])
    assert check.labels_ok([(0, 0)], noise)
    assert check.labels_ok([(0, 0), (1, 2)], noise)
    assert not check.labels_ok([(1, 2)], noise)


def test_checker_beliefs_tolerance():
    expected = np.arange(6.0).reshape(3, 2)
    assert check.beliefs_ok(expected + 5e-11, expected)
    assert not check.beliefs_ok(expected + 2e-10, expected)
    rows = [[0, [0.0, 1.0]], [2, [4.0, 5.0]]]
    dense = check.wire_beliefs(rows, 3, 2)
    assert check.beliefs_ok(dense, np.array([[0, 1], [0, 0], [4, 5.0]]))
    assert check.wire_beliefs([[3, [0.0, 1.0]]], 3, 2) is None


@pytest.fixture(scope="module")
def serve_inputs():
    return serve_mixed.Inputs(seed=5, seconds=0.2)


def test_serve_checker_rejects_a_corrupted_reply(serve_inputs):
    inputs = serve_inputs
    base = 1
    references = serve_mixed.References(inputs, base, {})
    replies = []
    for position in range(4):
        method, index, _ = inputs.queries[position]
        beliefs = references.beliefs(base, method, index)
        labels = [[int(node), serve_mixed.CLASS_NAMES[int(np.argmax(row))]]
                  for node, row in enumerate(beliefs) if np.any(row != 0)]
        replies.append({"ok": True, "labels": labels[:10],
                        "truncated": len(labels) > 10,
                        "snapshot_version": base})
    corrupted = json.loads(json.dumps(replies))
    node, name = corrupted[2]["labels"][0]
    row = references.beliefs(base, *inputs.queries[2][:2])[node]
    wrong = [c for c in range(3) if row[c] < row.max() - 1e-6][0]
    corrupted[2]["labels"][0][1] = serve_mixed.CLASS_NAMES[wrong]

    from repro.core.sbp import sbp

    view_beliefs = sbp(inputs.graph, inputs.coupling,
                       inputs.view_explicit).beliefs
    view = {"ok": True, "beliefs": [[int(node), row.tolist()] for node, row
                                    in enumerate(view_beliefs)
                                    if np.any(row != 0)]}

    def failures(sent):
        window = {"queries": [(i, 0.0, 0.0, json.dumps(reply))
                              for i, reply in enumerate(sent)],
                  "updates": []}
        return serve_mixed.check_replies(inputs, window, base, [], view)[1]

    assert failures(replies) == 0
    assert failures(corrupted) == 1


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def test_same_seed_gives_byte_identical_inputs(serve_inputs):
    again = serve_mixed.Inputs(seed=5, seconds=0.2)
    other = serve_mixed.Inputs(seed=6, seconds=0.2)
    assert serve_inputs.digest() == again.digest()
    assert serve_inputs.digest() != other.digest()
    assert all(len(line) < serve_mixed.MAX_LINE
               for line in serve_inputs.setup_lines)
    first = common.label_set(500, np.random.default_rng([3, 2]))
    second = common.label_set(500, np.random.default_rng([3, 2]))
    assert first.tobytes() == second.tobytes()
    assert np.allclose(first.sum(axis=1), 0.0)
    assert check.labelled_nodes(first).size == 25


# ---------------------------------------------------------------------- #
# wrappers: none in the untraced run, all removed after the traced one
# ---------------------------------------------------------------------- #
def _targets_wrapped():
    recorder = tracer.Recorder()
    return [tracer.is_wrapped(getattr(owner, attribute))
            for owner, attribute, *_ in layers.targets(recorder)]


def test_untraced_runs_install_no_wrappers(monkeypatch):
    import sys

    import repro.cli
    from repro.coupling.presets import synthetic_residual_matrix
    from repro.graphs import torus_graph

    from lbpbench import serve_child

    def refuse(*args, **kwargs):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracer, "install", refuse)
    result = sql_label.phase(seed=1, seconds=0.0, plain=True, trace=False,
                             workload=(torus_graph(),
                                       synthetic_residual_matrix()))
    assert result["traced"] is None
    assert result["plain"]["attempted"] == 9
    assert result["plain"]["failed"] == 0
    assert not any(_targets_wrapped())

    seen = []

    def cli_main(args):
        seen.append((list(args), any(_targets_wrapped())))
        return 0

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(repro.cli, "main", cli_main)
    assert serve_child.main(["-", "serve", "--async"]) == 0
    assert seen == [(["serve", "--async"], False)]
    assert not any(_targets_wrapped())


def test_traced_run_records_spans_and_uninstalls():
    from repro.coupling.presets import synthetic_residual_matrix
    from repro.engine import kernels
    from repro.graphs import torus_graph

    original = kernels.spmm
    recorder = tracer.Recorder()
    patches = tracer.install(recorder, layers.targets(recorder))
    try:
        assert all(_targets_wrapped())
        result = sql_label.run_pass(torus_graph(), synthetic_residual_matrix(),
                                    seed=1, seconds=0.0, recorder=recorder)
    finally:
        tracer.uninstall(patches)
    assert result["failed"] == 0
    assert kernels.spmm is original and not any(_targets_wrapped())
    names = {span.name for span in recorder.spans}
    assert {"relational.load_graph", "relational.run_linbp",
            "relational.run_sbp", "relational.top_labels"} <= names
    assert "batch.run_batch" not in names  # the reference check is muted
    metrics = common.Metrics()
    layers.layer_metrics(recorder.spans, metrics)
    assert metrics.values["relational.linbp_ms_per_iter"][0] > 0


def test_manifest_names_the_workloads_run_py_offers():
    from lbpbench import run, workloads

    names = [workload["name"] for workload in run.manifest()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
