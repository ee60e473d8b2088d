"""The benchmark's own span recorder.

Spans are recorded around calls into the program's public functions by
wrappers this module installs at run time; nothing in ``src/`` is edited.
A span records its name, thread, start and end (``time.perf_counter``), the
span that was open on the same thread when it started (its parent) and the
outermost such span (its root).  Spans stay in memory and are analysed after
the measured window (see :mod:`lbpbench.layers`).

:func:`install` rebinds every reference to a wrapped function in the loaded
``repro`` modules (``from x import f`` copies included) and patches wrapped
methods on their class; :func:`uninstall` restores the originals.  The
untraced run never calls :func:`install`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Attribute set on every wrapper, so a test can tell a wrapped callable.
WRAPPED_MARK = "__lbpbench_wrapped__"


class Span:
    """One recorded call: ``[start, end)`` on one thread."""

    __slots__ = ("name", "thread", "start", "end", "parent", "root", "info")

    def __init__(self, name: str, thread: int, start: float,
                 parent: Optional["Span"]):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.parent = parent
        self.root = self if parent is None else parent.root
        self.info: Dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        #: While set, wrappers call straight through and record nothing
        #: (the benchmark's own reference computations run muted).
        self.muted = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), time.perf_counter(),
                    stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def mute(self):
        """Record nothing inside the block (not reentrant)."""
        self.muted = True
        try:
            yield
        finally:
            self.muted = False

    def wrap(self, name: str, function: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``function``.

        ``before(span, args, kwargs)`` may return replacement
        ``(args, kwargs)``; ``after(span, args, kwargs, result)`` may return
        a replacement result.  Both run inside the span.
        """
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if recorder.muted:
                return function(*args, **kwargs)
            span = recorder.open(name)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                result = function(*args, **kwargs)
                if after is not None:
                    result = after(span, args, kwargs, result)
                return result
            finally:
                recorder.close(span)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals``, overlaps counted once."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span (keyed by ``id(span)``).

    A span's self time is its duration minus the part of its interval that
    its children on the same thread cover, overlapping children merged.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.parent
        if parent is not None and parent.thread == span.thread:
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(id(parent), []).append((start, end))
    return {id(span): span.duration
            - union_length(children.get(id(span), ()))
            for span in spans}


# ---------------------------------------------------------------------- #
# installing wrappers
# ---------------------------------------------------------------------- #
def _rebind_function(owner, attribute: str, wrapper: Callable,
                     patches: list) -> None:
    """Point every ``repro`` module attribute bound to the function at it."""
    original = getattr(owner, attribute)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                patches.append((module, name, original))
                setattr(module, name, wrapper)


def install(recorder: Recorder, targets) -> List[Tuple[object, str, object]]:
    """Wrap every target; return the ``(owner, attribute, original)`` undo
    log for :func:`uninstall`.

    ``targets`` yields ``(owner, attribute, span_name, before, after)``.  A
    class owner gets its method replaced; a module owner gets every
    reference to the function across loaded ``repro`` modules replaced.
    """
    patches: List[Tuple[object, str, object]] = []
    for owner, attribute, name, before, after in targets:
        original = getattr(owner, attribute)
        wrapper = recorder.wrap(name, original, before=before, after=after)
        if isinstance(owner, type):
            patches.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, wrapper)
        else:
            _rebind_function(owner, attribute, wrapper, patches)
    return patches


def uninstall(patches: List[Tuple[object, str, object]]) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
    patches.clear()


def is_wrapped(function: Callable) -> bool:
    """True when ``function`` is a wrapper installed by this module."""
    return bool(getattr(function, WRAPPED_MARK, False))
