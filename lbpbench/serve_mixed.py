"""The serving phase: wire traffic against ``repro serve --async``.

It is the main phase of the ``serve_mixed`` workload (Kronecker suite #3,
2,187 nodes, 16,202 adjacency entries) and a short side phase of
``sql_label`` (see :mod:`lbpbench.workloads`).  One client process opens
two connections to a server in its default configuration:

* the query connection runs a closed loop with :data:`OUTSTANDING` requests
  in flight (below the server's ``max_inflight`` of 8): fresh LinBP queries
  labelling 5 % of the nodes, fresh SBP queries, exact repeats of a query
  already answered (result-cache hits) and some ``staleness: 1`` reads;
* the update connection runs an open loop at a fixed rate per second
  (:data:`UPDATE_RATE` in ``serve_mixed``); every update adds
  :data:`UPDATE_EDGES` edges and :data:`UPDATE_LABELS` labels in one
  request, and is timed from its due time.

Every reply is checked afterwards against ``linbp()`` / ``sbp()`` on the
exact graph version the reply names.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from lbpbench import check
from lbpbench.common import (
    Metrics,
    belief_triples,
    cpu_seconds,
    label_set,
    new_edges,
    peak_rss_mb,
    suite_workload,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUITE_INDEX = 3
OUTSTANDING = 4
#: Updates per second.  Updates arrive at a fixed rate while queries fill
#: the rest of the server's time, so a slower host takes a larger share
#: away from queries and the query metrics swing more than the host's
#: speed (about 1.5x for ``query_qps`` at 6 updates/s).  Four per second
#: keeps that smaller and still gives ``update_p90_ms`` its 100 samples in
#: a 30-second window.
UPDATE_RATE = 4.0
UPDATE_EDGES = 4
UPDATE_LABELS = 2
#: Query mix: fresh LinBP, fresh SBP, exact repeat (cumulative shares).
FRESH_LINBP, FRESH_SBP = 0.6, 0.8
#: Share of fresh LinBP queries and of repeats sent with ``staleness: 1``.
STALE_FRESH, STALE_REPEAT = 0.1, 0.5
#: Generated queries per measured second.  A faster server wraps around to
#: the first ones, which then run against a newer graph version.
QUERIES_PER_SECOND = 100
#: The window runs past its seconds until this many queries completed, so
#: that ``query_p99_ms`` always has 10 samples beyond it, but no longer
#: than :data:`MAX_WINDOW` seconds (or twice its own length).  A short
#: window on a host short of CPU needs that room: at 12 % steal the
#: 10-second window of ``sql_label`` answered 44 queries per second.
MIN_QUERIES = 1000
MAX_WINDOW = 60.0
#: The window lasts long enough for this many updates to be sent, so that
#: ``update_p90_ms`` always has 10 samples beyond it.
MIN_UPDATES = 101
#: Queries re-fetched with full beliefs after the window.
REFETCH = 16
#: Set-ups per untraced run before and after the window (the last one
#: before it serves the window); set-up time is their median.  The host's
#: speed drifts over seconds, so they are not taken in one burst.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
#: Longest request line the server reads (asyncio's default limit).
MAX_LINE = 64 * 1024
CLASS_NAMES = ["c1", "c2", "c3"]

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


def _line(request: dict) -> bytes:
    return json.dumps(request, separators=(",", ":")).encode()


def _with_bid(body: bytes, bid: int) -> bytes:
    return body[:-1] + b',"bid":%d}\n' % bid


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
class Inputs:
    """Everything the run sends, generated from the seed before timing."""

    def __init__(self, seed: int, seconds: float,
                 suite_index: int = SUITE_INDEX,
                 update_rate: float = UPDATE_RATE):
        graph, coupling = suite_workload(suite_index)
        self.graph, self.coupling = graph, coupling
        self.update_rate = update_rate
        #: Length of the measured window.
        self.seconds = seconds = max(seconds, MIN_UPDATES / update_rate)
        n = self.num_nodes = graph.num_nodes
        rng = np.random.default_rng([seed, suite_index])
        edges = [[e.source, e.target] for e in graph.edges()]
        self.setup_lines = self._graph_lines(edges, n)
        self.setup_lines.append(_line({
            "op": "load_coupling", "v": 1, "name": "h",
            "residual": coupling.unscaled_residual.tolist(),
            "epsilon": coupling.epsilon, "classes": CLASS_NAMES}))
        self.view_explicit = label_set(n, rng)
        self.setup_lines.append(_line({
            "op": "view", "v": 1, "graph": "g", "name": "view",
            "coupling": "h", "method": "sbp",
            "beliefs": belief_triples(self.view_explicit)}))
        warm = label_set(n, rng)
        self.warm_line = _line(self._query(warm, "linbp", 0))
        # queries: (method, explicit index, staleness); repeats reuse the
        # explicit beliefs of an earlier fresh query already answered.
        # Explicit beliefs are kept as (labelled nodes, their rows).
        self.explicits: List[Tuple[np.ndarray, np.ndarray]] = []
        self.queries: List[Tuple[str, int, int]] = []
        self.query_lines: List[bytes] = []
        fresh_positions: List[int] = []
        for position in range(int(QUERIES_PER_SECOND * seconds)):
            draw = rng.random()
            answered = [p for p in fresh_positions[-8:]
                        if p <= position - OUTSTANDING]
            if draw >= FRESH_SBP and answered:
                method, index, _ = self.queries[answered[-1]]
                staleness = int(rng.random() < STALE_REPEAT)
            else:
                method = "linbp" if draw < FRESH_LINBP or draw >= FRESH_SBP \
                    else "sbp"
                index = len(self.explicits)
                explicit = label_set(n, rng)
                nodes = check.labelled_nodes(explicit)
                self.explicits.append((nodes, explicit[nodes]))
                staleness = int(method == "linbp"
                                and rng.random() < STALE_FRESH)
                fresh_positions.append(position)
            self.queries.append((method, index, staleness))
            self.query_lines.append(_line(self._query(
                self.explicit(index), method, staleness)))
        self.updates: List[Tuple[List[Tuple[int, int]], np.ndarray]] = []
        self.update_lines: List[bytes] = []
        for _ in range(int(update_rate * max(2 * seconds, MAX_WINDOW)) + 1):
            added = new_edges(n, UPDATE_EDGES, rng)
            labels = label_set(n, rng, fraction=UPDATE_LABELS / n)
            self.updates.append((added, labels))
            self.update_lines.append(_line({
                "op": "update", "v": 1, "graph": "g",
                "edges": [list(edge) for edge in added],
                "beliefs": belief_triples(labels)}))

    def explicit(self, index: int) -> np.ndarray:
        """The dense explicit beliefs of fresh query ``index``."""
        nodes, rows = self.explicits[index]
        matrix = np.zeros((self.num_nodes, rows.shape[1]))
        matrix[nodes] = rows
        return matrix

    @staticmethod
    def _graph_lines(edges: List[list], n: int) -> List[bytes]:
        """``load_graph`` plus ``update`` lines, each within the line cap."""
        lines, start, op = [], 0, "load_graph"
        while start < len(edges):
            size = len(edges) - start
            while True:
                body = {"op": op, "v": 1, "edges": edges[start:start + size]}
                body.update({"name": "g", "num_nodes": n}
                            if op == "load_graph" else {"graph": "g"})
                line = _line(body)
                if len(line) + 32 < MAX_LINE:
                    break
                size = size * 3 // 4
            lines.append(line)
            start += size
            op = "update"
        return lines

    @staticmethod
    def _query(explicit: np.ndarray, method: str, staleness: int) -> dict:
        request = {"op": "query", "v": 1, "graph": "g", "coupling": "h",
                   "method": method, "beliefs": belief_triples(explicit)}
        if staleness:
            request["staleness"] = staleness
        return request

    def digest(self) -> bytes:
        """All generated request bytes, for the determinism self-test."""
        return b"".join(self.setup_lines + [self.warm_line]
                        + self.query_lines + self.update_lines)


# ---------------------------------------------------------------------- #
# the server child and its connections
# ---------------------------------------------------------------------- #
class Connection:
    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line if line.endswith(b"\n") else line + b"\n")

    def receive(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def call(self, line: bytes) -> dict:
        self.send(line)
        reply = json.loads(self.receive())
        if not reply.get("ok"):
            raise RuntimeError(f"set-up request failed: {reply}")
        return reply

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """One ``repro serve --async`` child (via ``serve_child.py``)."""

    def __init__(self, workdir: str, tag: str, trace: bool):
        self.log_path = os.path.join(workdir, f"server-{tag}.log")
        self.trace_path = os.path.join(workdir, f"spans-{tag}.json") \
            if trace else None
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "lbpbench", "serve_child.py"),
             self.trace_path or "-", "serve", "--async", "--port", "0"],
            cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT)

    def address(self, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, "r", encoding="utf-8",
                      errors="replace") as handle:
                found = _LISTENING.search(handle.read())
            if found:
                return found.group(1), int(found.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start: {self._tail()}")

    def _tail(self) -> str:
        with open(self.log_path, "r", encoding="utf-8",
                  errors="replace") as handle:
            return handle.read()[-2000:]

    def stop(self, connection: Optional[Connection]) -> None:
        """Shut down through the wire, then make sure the child has ended."""
        try:
            if connection is not None:
                connection.send(b'{"op":"shutdown"}')
                connection.receive()
        except (OSError, ConnectionError):
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        finally:
            self._log.close()


def set_up(inputs: Inputs, workdir: str, tag: str, trace: bool):
    """Spawn a server and load it; return ``(server, query connection,
    seconds from spawn to the first answered query, base version)``."""
    start = time.perf_counter()
    server = Server(workdir, tag, trace)
    try:
        connection = Connection(server.address())
        version = None
        for line in inputs.setup_lines:
            reply = connection.call(line)
            version = reply.get("version", version)
        reply = connection.call(inputs.warm_line)
    except BaseException:
        server.process.kill()
        server.stop(None)
        raise
    return server, connection, time.perf_counter() - start, int(version)


# ---------------------------------------------------------------------- #
# the measured window
# ---------------------------------------------------------------------- #
def _query_loop(connection: Connection, inputs: Inputs, start: float,
                seconds: float, out: list, stop: threading.Event) -> float:
    """Closed loop until ``seconds`` have passed and :data:`MIN_QUERIES`
    replies arrived (see :data:`MAX_WINDOW`); return the window's end."""
    in_flight: deque = deque()
    position = 0
    end = None

    def send():
        nonlocal position
        in_flight.append((position, time.perf_counter()))
        line = inputs.query_lines[position % len(inputs.query_lines)]
        connection.send(_with_bid(line, position))
        position += 1

    for _ in range(OUTSTANDING):
        send()
    while in_flight:
        reply = connection.receive()
        done = time.perf_counter()
        index, sent = in_flight.popleft()
        out.append((index, sent, done, reply))
        if end is None:
            elapsed = done - start
            if (elapsed >= seconds and len(out) >= MIN_QUERIES) \
                    or elapsed >= max(2 * seconds, MAX_WINDOW):
                end = done
                stop.set()
            else:
                send()
    return end


def _update_loop(connection: Connection, inputs: Inputs, start: float,
                 stop: threading.Event, out: list, lags: list) -> None:
    """Open loop: one update every ``1 / update_rate`` s until ``stop``."""
    due_queue: deque = deque()
    ready = threading.Semaphore(0)

    def receive():
        while True:
            ready.acquire()
            if not due_queue:
                return
            index, due = due_queue.popleft()
            reply = connection.receive()
            out.append((index, due, time.perf_counter(), reply))

    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    for index, line in enumerate(inputs.update_lines):
        due = start + index / inputs.update_rate
        if stop.wait(max(0.0, due - time.perf_counter())):
            break
        lags.append(time.perf_counter() - due)
        due_queue.append((index, due))
        connection.send(_with_bid(line, 1_000_000 + index))
        ready.release()
    ready.release()
    receiver.join(timeout=120)
    if receiver.is_alive():
        raise RuntimeError("update replies did not arrive")


def run_window(server: Server, queries: Connection, inputs: Inputs
               ) -> dict:
    updates = Connection(queries.sock.getpeername())
    query_out: list = []
    update_out: list = []
    lags: list = []
    stop = threading.Event()
    cpu_start = cpu_seconds(server.process.pid)
    start = time.perf_counter()
    update_thread = threading.Thread(
        target=_update_loop,
        args=(updates, inputs, start, stop, update_out, lags))
    update_thread.start()
    try:
        end = _query_loop(queries, inputs, start, inputs.seconds, query_out,
                          stop)
    finally:
        stop.set()
        update_thread.join(timeout=180)
    if update_thread.is_alive():
        raise RuntimeError("update loop did not finish")
    cpu_used = cpu_seconds(server.process.pid) - cpu_start
    wall = time.perf_counter() - start
    updates.close()
    return {"queries": query_out, "updates": update_out, "lags": lags,
            "start": start, "end": end, "cpu_util": cpu_used / wall}


# ---------------------------------------------------------------------- #
# checking
# ---------------------------------------------------------------------- #
class References:
    """Reference answers per graph version, built independently of the
    server: each version's adjacency is the previous one plus its edges."""

    def __init__(self, inputs: Inputs, base_version: int,
                 update_versions: Dict[int, int]):
        from repro.graphs.graph import Graph

        self.inputs = inputs
        self._graph_class = Graph
        self.base_version = base_version
        self._edges_at = {version: inputs.updates[index][0]
                          for index, version in update_versions.items()}
        self._graphs = {base_version: inputs.graph}
        self._answers: Dict[Tuple[int, str, int], np.ndarray] = {}

    def graph(self, version: int):
        import scipy.sparse as sp

        if version not in self._graphs:
            if version < self.base_version or version not in self._edges_at:
                raise KeyError(version)
            previous = self.graph(version - 1)
            edges = np.array(self._edges_at[version])
            n = self.inputs.num_nodes
            delta = sp.coo_matrix((np.ones(len(edges)),
                                   (edges[:, 0], edges[:, 1])), shape=(n, n))
            self._graphs[version] = self._graph_class(
                previous.adjacency + delta + delta.T, validate=False)
        return self._graphs[version]

    def beliefs(self, version: int, method: str, index: int) -> np.ndarray:
        from repro.core.linbp import linbp
        from repro.core.sbp import sbp

        key = (version, method, index)
        if key not in self._answers:
            solve = linbp if method == "linbp" else sbp
            self._answers[key] = solve(self.graph(version),
                                       self.inputs.coupling,
                                       self.inputs.explicit(index)).beliefs
        return self._answers[key]


def check_replies(inputs: Inputs, window: dict, base_version: int,
                  refetched: List[Tuple[int, dict]], view: dict
                  ) -> Tuple[int, int, int, Dict[int, int]]:
    """Check every reply; return ``(attempted, failed, overloaded,
    versions per update index)``."""
    attempted = failed = overloaded = 0
    versions: Dict[int, int] = {}
    for index, _, _, raw in window["updates"]:
        attempted += 1
        reply = json.loads(raw)
        if reply.get("ok") and isinstance(reply.get("version"), int):
            versions[index] = reply["version"]
        else:
            failed += 1
            overloaded += reply.get("error", {}).get("code") == "overloaded"
    applied = sorted(versions.values())
    if applied != list(range(base_version + 1,
                             base_version + 1 + len(applied))):
        failed += 1  # versions must be consecutive after the base graph
    references = References(inputs, base_version, versions)
    n, k = inputs.num_nodes, len(CLASS_NAMES)
    for position, _, _, raw in window["queries"]:
        attempted += 1
        reply = json.loads(raw)
        method, index, _ = inputs.queries[position % len(inputs.queries)]
        try:
            expected = references.beliefs(reply["snapshot_version"], method,
                                          index)
            good = reply["ok"] and check.wire_labels_ok(
                reply["labels"], reply["truncated"], expected, CLASS_NAMES)
        except (KeyError, TypeError, ValueError):
            good = False
            overloaded += reply.get("error", {}).get("code") == "overloaded"
        failed += not good
    for position, reply in refetched:
        attempted += 1
        method, index, _ = inputs.queries[position % len(inputs.queries)]
        try:
            expected = references.beliefs(reply["snapshot_version"], method,
                                          index)
            actual = check.wire_beliefs(reply["beliefs"], n, k)
            good = actual is not None and check.beliefs_ok(actual, expected)
        except (KeyError, TypeError, ValueError):
            good = False
        failed += not good
    attempted += 1
    failed += not _view_ok(inputs, references, versions, view)
    return attempted, failed, overloaded, versions


def _view_ok(inputs: Inputs, references: References,
             versions: Dict[int, int], view: dict) -> bool:
    """The maintained SBP view against a from-scratch ``sbp()`` on the
    final graph with every update's labels applied in version order."""
    from repro.core.sbp import sbp

    if not view.get("ok"):
        return False
    explicit = inputs.view_explicit.copy()
    last = references.base_version
    for index, version in sorted(versions.items(), key=lambda item: item[1]):
        labels = inputs.updates[index][1]
        rows = np.any(labels != 0.0, axis=1)
        explicit[rows] = labels[rows]
        last = max(last, version)
    expected = sbp(references.graph(last), inputs.coupling, explicit).beliefs
    actual = check.wire_beliefs(view["beliefs"], inputs.num_nodes,
                                len(CLASS_NAMES))
    return actual is not None and check.beliefs_ok(actual, expected)


def _refetch(connection: Connection, inputs: Inputs, window: dict,
             seed: int) -> List[Tuple[int, dict]]:
    """Re-send a seeded sample of answered queries for full beliefs."""
    rng = np.random.default_rng([seed, 99])
    answered = [position for position, _, _, _ in window["queries"]]
    picks = rng.choice(answered, size=min(REFETCH, len(answered)),
                       replace=False)
    fetched = []
    for position in sorted(int(p) for p in picks):
        request = json.loads(
            inputs.query_lines[position % len(inputs.query_lines)])
        request.pop("staleness", None)
        request.update({"limit": 0, "return_beliefs": True})
        connection.send(_line(request))
        fetched.append((position, json.loads(connection.receive())))
    return fetched


# ---------------------------------------------------------------------- #
# one pass: set-ups, window, checks; the phase and its metrics
# ---------------------------------------------------------------------- #
def run_pass(inputs: Inputs, seed: int, workdir: str, trace: bool,
             setups_before: int, setups_after: int = 0) -> dict:
    from lbpbench.serve_child import load_spans

    setup_times = []
    server = connection = None
    for attempt in range(setups_before):
        if server is not None:
            server.stop(connection)
            connection.close()
        server, connection, elapsed, base_version = set_up(
            inputs, workdir, f"{'t' if trace else 'u'}{attempt}", trace)
        setup_times.append(elapsed)
    try:
        window = run_window(server, connection, inputs)
        refetched = _refetch(connection, inputs, window, seed)
        connection.send(b'{"op":"read_view","v":1,"graph":"g",'
                        b'"name":"view","limit":0}')
        view = json.loads(connection.receive())
        rss = peak_rss_mb(str(server.process.pid))
    finally:
        server.stop(connection)
        connection.close()
    spans = None
    if trace:
        # Server and client read the same monotonic clock: keep the
        # requests that started inside the measured window.
        start, end = window["start"], window["end"]
        spans = [span for span in load_spans(server.trace_path)
                 if start <= span.root.start <= end]
    attempted, failed, overloaded, _ = check_replies(
        inputs, window, base_version, refetched, view)
    for attempt in range(setups_after):
        server, connection, elapsed, _ = set_up(
            inputs, workdir, f"after{attempt}", False)
        server.stop(connection)
        connection.close()
        setup_times.append(elapsed)
    return {"window": window, "setup_times": setup_times, "rss": rss,
            "attempted": attempted, "failed": failed,
            "overloaded": overloaded, "spans": spans}


def phase(inputs: Inputs, seed: int, setups: Optional[Tuple[int, int]],
          trace: bool) -> dict:
    """An untraced pass with ``setups`` (set-ups before and after the
    window; ``None`` skips the pass), then, with ``trace``, a traced pass
    of the same schedule.  Returns ``{"plain": ..., "traced": ...}``."""
    workdir = os.path.join(ROOT, ".lbpbench", f"serve-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plain = run_pass(inputs, seed, workdir, False, *setups) \
            if setups is not None else None
        traced = run_pass(inputs, seed, workdir, True, 1) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"plain": plain, "traced": traced}


def _timed(window: dict) -> Tuple[list, list]:
    """Query and update samples that completed inside the window."""
    queries = [(i, done - sent) for i, sent, done, _ in window["queries"]
               if done <= window["end"]]
    updates = [done - due for _, due, done, _ in window["updates"]]
    return queries, updates


def throughput(one_pass: dict) -> float:
    """Completed queries per second of a pass's window."""
    window = one_pass["window"]
    return len(_timed(window)[0]) / (window["end"] - window["start"])


def end_to_end(plain: dict, metrics: Metrics) -> None:
    """The query and update metrics of an untraced pass."""
    queries, updates = _timed(plain["window"])
    latencies = [latency for _, latency in queries]
    metrics.median("query_p50_ms", latencies, "ms", scale=1e3)
    metrics.tail("query_p99_ms", latencies, 99, "ms", scale=1e3)
    metrics.add("query_qps", throughput(plain), "queries/s",
                f"n={len(queries)}")
    metrics.median("update_p50_ms", updates, "ms", scale=1e3)
    metrics.tail("update_p90_ms", updates, 90, "ms", scale=1e3)


def serving_layers(traced: dict, metrics: Metrics) -> None:
    """The per-layer metrics only a traced pass's wire requests give:
    time outside ``handle_line``, path coverage, generator lag and server
    CPU.  The module-level layer metrics come from
    :func:`lbpbench.layers.layer_metrics` on the pass's spans."""
    from lbpbench.layers import request_paths

    traced_queries, _ = _timed(traced["window"])
    paths = request_paths(traced["spans"])
    joined = [(latency, paths[i]) for i, latency in traced_queries
              if i in paths]
    metrics.median("aserve.outside_ms_p50",
                   [latency - path["handle_line"]
                    for latency, path in joined], "ms", scale=1e3)
    if joined:
        parts = sum(latency - path["handle_line"] + path["protocol"]
                    + path["service"] + path["coalescer"] + path["engine"]
                    for latency, path in joined)
        metrics.add("bench.path_coverage",
                    parts / sum(latency for latency, _ in joined), "ratio",
                    f"{len(joined)} of {len(traced_queries)} queries joined")
    metrics.tail("bench.gen_lag_p90_ms", traced["window"]["lags"], 90, "ms",
                 scale=1e3)
    metrics.add("host.server_cpu_util", traced["window"]["cpu_util"], "ratio")
