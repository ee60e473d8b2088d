"""Answer checks shared by every workload.

A label is accepted when its class is within :data:`TIE_TOLERANCE` of the
row's best class, so rows whose top two classes tie accept either label.
Beliefs must agree with the reference to :data:`BELIEF_TOLERANCE`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from lbpbench.common import BELIEF_TOLERANCE, TIE_TOLERANCE


def label_ok(row: np.ndarray, klass: int) -> bool:
    """True when ``klass`` is (within the tie width) a best class of ``row``."""
    return 0 <= klass < row.size and row[klass] >= row.max() - TIE_TOLERANCE


def labelled_nodes(beliefs: np.ndarray) -> np.ndarray:
    """Nodes with a non-zero belief row, in node order."""
    return np.nonzero(np.any(beliefs != 0.0, axis=1))[0]


def _pairs_ok(pairs: Sequence[Sequence[int]], beliefs: np.ndarray,
              complete: bool) -> bool:
    """Check ``(node, class)`` pairs in node order against reference beliefs.

    Every labelled reference node must appear, up to the last listed node
    when the list is not ``complete``.  A reference row within the tie width
    of zero ties every class with "no label": it may appear with any class,
    or not at all (summation order decides whether such a row cancels to
    exactly zero).
    """
    nodes = [int(node) for node, _ in pairs]
    if nodes != sorted(set(nodes)) or (nodes and not (
            0 <= nodes[0] and nodes[-1] < beliefs.shape[0])):
        return False
    magnitude = np.abs(beliefs).max(axis=1, initial=0.0)
    for node, klass in pairs:
        if magnitude[node] > TIE_TOLERANCE \
                and not label_ok(beliefs[node], int(klass)):
            return False
    required = np.nonzero(magnitude > TIE_TOLERANCE)[0]
    if not complete:
        required = required[required <= (nodes[-1] if nodes else -1)]
    return set(required.tolist()) <= set(nodes)


def wire_labels_ok(rows: Sequence[Sequence], truncated: bool,
                   beliefs: np.ndarray, class_names: Sequence[str]) -> bool:
    """Check a reply's ``[node, class name]`` rows against reference beliefs;
    a truncated reply lists only the first labelled nodes."""
    if any(name not in class_names for _, name in rows):
        return False
    return _pairs_ok([(node, class_names.index(name)) for node, name in rows],
                     beliefs, complete=not truncated)


def labels_ok(pairs: Iterable[Sequence[int]], beliefs: np.ndarray) -> bool:
    """Check ``(node, class)`` pairs that cover every labelled node."""
    return _pairs_ok(list(pairs), beliefs, complete=True)


def beliefs_ok(actual: np.ndarray, expected: np.ndarray,
               tolerance: float = BELIEF_TOLERANCE) -> bool:
    """Same shape and every entry within ``tolerance``."""
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= tolerance))


def wire_beliefs(rows: Sequence[Sequence], num_nodes: int,
                 num_classes: int) -> Optional[np.ndarray]:
    """The dense matrix of a reply's ``[node, [values]]`` belief rows."""
    matrix = np.zeros((num_nodes, num_classes))
    for node, values in rows:
        if not 0 <= node < num_nodes or len(values) != num_classes:
            return None
        matrix[node] = values
    return matrix
