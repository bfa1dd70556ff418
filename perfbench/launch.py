"""Start ``autosva serve`` or ``autosva worker`` for the benchmark.

Usage: ``python3 perfbench/launch.py {serve|worker} ARGS...`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  When
``PERFBENCH_TRACE_DIR`` is set, the layer wrappers of ``tracing.py`` are
installed first and this process's spans are written to that directory
when the entry point returns; otherwise this is exactly the normal
``serve``/``worker`` main.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv) -> int:
    if not argv or argv[0] not in ("serve", "worker"):
        print("usage: launch.py {serve|worker} ARGS...", file=sys.stderr)
        return 2
    role, rest = argv[0], argv[1:]
    recorder = None
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        import tracing
        recorder = tracing.Recorder(Path(trace_dir))
        tracing.install_engine_layers(recorder)
        tracing.install_task_boundary(recorder)
        if role == "serve":
            tracing.install_service_layers(recorder)
    if role == "serve":
        from repro.service.server import serve_main as entry
    else:
        from repro.dist.worker import worker_main as entry
    try:
        return entry(rest)
    finally:
        if recorder is not None:
            if role == "serve":
                recorder.samples["service.issue_wait_s"] = \
                    tracing.issue_waits(recorder)
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
