"""Shared pieces of the benchmark: workload constants, seeded inputs, the
percentile rule, memory and host records, and the result line."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Coupling scale per Kronecker suite graph that puts the spectral radius
#: of the LinBP update at ~0.5 (the Fig. 6b coupling at scale 1 gives
#: rho = 0.97 on #1 and diverges on #2 and #3: rho = 1.35 and 1.84).
EPSILON = {1: 0.528, 2: 0.366, 3: 0.276}

#: Share of nodes a fresh label set labels.
LABEL_FRACTION = 0.05

#: Tolerance of every belief comparison, and the width of a tie between
#: the two best classes of a row (either label is then accepted).
BELIEF_TOLERANCE = 1e-10
TIE_TOLERANCE = 1e-9

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_MINIMUM = 10


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def suite_workload(index: int):
    """Kronecker suite graph ``#index`` (suite seed 0) and its coupling."""
    from repro.datasets import kronecker_suite

    workload = kronecker_suite(max_index=index, seed=0)[index - 1]
    return workload.graph, workload.coupling.scaled(EPSILON[index])


def label_set(num_nodes: int, rng: np.random.Generator,
              num_classes: int = 3,
              fraction: float = LABEL_FRACTION) -> np.ndarray:
    """A fresh ``n x k`` explicit-belief matrix on a random node sample.

    The paper's scheme, vectorised: each labelled row draws ``k - 1``
    residuals from the grid {-0.1, -0.09, ..., 0.1} and its last class the
    negative sum, so rows are centred; all-zero rows are drawn again.
    """
    from repro.datasets.synthetic_labels import belief_value_grid

    grid = belief_value_grid()
    count = max(1, int(round(fraction * num_nodes)))
    nodes = np.sort(rng.choice(num_nodes, size=count, replace=False))
    rows = np.zeros((count, num_classes))
    redraw = np.ones(count, dtype=bool)
    while redraw.any():
        draws = rng.choice(grid, size=(int(redraw.sum()), num_classes - 1))
        rows[redraw, :-1] = draws
        rows[redraw, -1] = np.round(-draws.sum(axis=1), 10)
        redraw = ~np.any(rows != 0.0, axis=1)
    explicit = np.zeros((num_nodes, num_classes))
    explicit[nodes] = rows
    return explicit


def belief_triples(explicit: np.ndarray) -> List[list]:
    """The wire ``[node, class, value]`` rows of an explicit matrix."""
    nodes = np.nonzero(np.any(explicit != 0.0, axis=1))[0]
    return [[int(node), int(klass), float(explicit[node, klass])]
            for node in nodes for klass in range(explicit.shape[1])]


def new_edges(num_nodes: int, count: int,
              rng: np.random.Generator) -> List[Tuple[int, int]]:
    """``count`` random node pairs without self-loops."""
    edges = []
    while len(edges) < count:
        source, target = (int(x) for x in rng.integers(0, num_nodes, 2))
        if source != target:
            edges.append((source, target))
    return edges


# ---------------------------------------------------------------------- #
# the percentile rule
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``."""
    return count - max(1, math.ceil(round(q / 100.0 * count, 9)))


class Metrics:
    """Metric values in report order, with the sample count behind each."""

    def __init__(self):
        self.values: Dict[str, Tuple[float, str]] = {}
        self.samples: Dict[str, str] = {}

    def add(self, name: str, value: float, unit: str,
            samples: Optional[str] = None) -> None:
        self.values[name] = (float(value), unit)
        if samples is not None:
            self.samples[name] = samples

    def median(self, name: str, values: Sequence[float], unit: str,
               scale: float = 1.0) -> None:
        """Record the p50 of ``values`` (times ``scale``) if any exist."""
        if values:
            self.add(name, percentile(values, 50) * scale, unit,
                     f"n={len(values)}")

    def tail(self, name: str, values: Sequence[float], q: float, unit: str,
             scale: float = 1.0) -> None:
        """Record percentile ``q`` only when enough samples lie beyond it."""
        extra = beyond(len(values), q)
        if values and extra >= TAIL_MINIMUM:
            self.add(name, percentile(values, q) * scale, unit,
                     f"n={len(values)}, {extra} beyond")

    def report_lines(self) -> List[str]:
        lines = []
        for name, (value, unit) in self.values.items():
            count = self.samples.get(name)
            suffix = f"  ({count})" if count else ""
            lines.append(f"  {name:<32} {value:>14.6g} {unit}{suffix}")
        return lines

    def as_json(self) -> Dict[str, dict]:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in self.values.items()}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Metrics) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics.as_json()})


# ---------------------------------------------------------------------- #
# memory and CPU of this process or a child
# ---------------------------------------------------------------------- #
def _status_kb(pid: str, field: str) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def peak_rss_mb(pid: str = "self") -> float:
    """High-water resident set size of a process, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def inputs_ready() -> None:
    """Call once the inputs exist, before any timer starts.

    Moves every object alive now out of the collector's reach, so that
    collections inside timed operations do not walk the inputs, and
    restarts the high-water RSS from the current RSS, so that input
    generation does not count towards the program's peak.
    """
    gc.collect()
    gc.freeze()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_cpu_ticks() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat``: ticks per state."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: List[int]) -> float:
    """Share of the CPU ticks since ``before`` that the hypervisor gave to
    other guests (``steal``).  A run with a high share ran on a host that
    was short of CPU, and its timings are slower for that reason alone."""
    delta = [after - start
             for start, after in zip(before, host_cpu_ticks())][:8]
    return delta[7] / max(1, sum(delta))


# ---------------------------------------------------------------------- #
# host record
# ---------------------------------------------------------------------- #
def host_record() -> Dict[str, object]:
    """CPU, library versions, BLAS build and threads, absent dependencies."""
    import importlib.util
    import sqlite3

    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii",
                  errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "absent": [name for name in ("numba", "duckdb", "cupy")
                   if importlib.util.find_spec(name) is None],
    }


def say(*parts) -> None:
    """A report line on standard output (never the last line)."""
    print(*parts, flush=True)

