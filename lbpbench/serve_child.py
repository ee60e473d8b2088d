"""Launch ``repro`` in a child process, optionally under the span recorder.

Usage: ``python3 lbpbench/serve_child.py TRACE_FILE|- ARGS...``, where
``ARGS`` are ``repro`` command-line arguments (``serve --async ...``).  With
a trace file, the benchmark's wrappers are installed before ``repro.cli``
runs, and the recorded spans are written to the file when it returns.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dump_spans(spans, path: str) -> None:
    """Write spans as ``[name, thread, start, end, parent, info]`` rows."""
    index = {id(span): position for position, span in enumerate(spans)}
    rows = [[span.name, span.thread, span.start, span.end,
             index.get(id(span.parent)) if span.parent is not None else None,
             span.info] for span in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)


def load_spans(path: str):
    """Rebuild the spans :func:`dump_spans` wrote (parents and roots)."""
    from lbpbench.tracer import Span

    with open(path, "r", encoding="utf-8") as handle:
        rows = json.load(handle)
    spans = []
    for name, thread, start, end, _, info in rows:
        span = Span(name, thread, start, None)
        span.end = end
        span.info = info
        spans.append(span)
    for span, row in zip(spans, rows):
        if row[4] is not None:
            span.parent = spans[row[4]]
    for span in spans:
        root = span
        while root.parent is not None:
            root = root.parent
        span.root = root
    return spans


def main(argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    trace_file, cli_args = argv[0], argv[1:]
    import repro.cli

    if trace_file == "-":
        return repro.cli.main(cli_args)
    from lbpbench import layers, tracer

    recorder = tracer.Recorder()
    tracer.install(recorder, layers.targets(recorder))
    try:
        return repro.cli.main(cli_args)
    finally:
        dump_spans(recorder.spans, trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
