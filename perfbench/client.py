"""Client process: one fresh interpreter runs steps 1-5 and the report.

``run_client`` builds the run, says ``"ready"`` to the benchmark, waits for
``"go"``, runs ``PipelineRun.run_step(1..5)`` and ``finalize()``, and sends
back its timings and the warnings fairprobe logged meanwhile. Given a spans
file it also installs the wrappers of ``tracing.py``, writes the spans to
that file when the run has ended and sends the per-layer metrics.
"""

from __future__ import annotations

import json
import logging
import resource
import time
from contextlib import nullcontext
from typing import Any

from fairprobe.config import RunConfig
from fairprobe.pipeline import PipelineRun

from tracing import Tracer, layer_metrics

STEPS = (1, 2, 3, 4, 5)


class WarningLog(logging.Handler):
    """Keeps the messages of every warning or error fairprobe logs."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(f"{record.name}: {record.getMessage()}")


def run_client(conn: Any, settings: dict[str, Any], spans_file: str | None) -> None:
    """Run the pipeline once; ``conn`` has ``send`` and ``recv`` (``channel.Parent``)."""
    warnings = WarningLog()
    logging.getLogger("fairprobe").addHandler(warnings)
    run = PipelineRun(RunConfig(**settings))
    tracer = Tracer() if spans_file else None
    if tracer is not None:
        tracer.install()
    conn.send("ready")
    try:
        if conn.recv() != "go":
            return
    except EOFError:
        return

    stage = tracer.step if tracer is not None else lambda name: nullcontext()
    steps: dict[str, float] = {}
    started = time.perf_counter()
    started_cpu = time.process_time()
    for number in STEPS:
        wall = time.perf_counter()
        cpu = time.process_time()
        with stage(f"step{number}"):
            run.run_step(number)
        steps[f"pipeline.step{number}_s"] = time.perf_counter() - wall
        steps[f"pipeline.step{number}_cpu_s"] = time.process_time() - cpu
    wall = time.perf_counter()
    with stage("report"):
        run.finalize()
    finished = time.perf_counter()
    finished_cpu = time.process_time()
    steps["pipeline.report_s"] = finished - wall

    result: dict[str, Any] = {
        "run_s": finished - started,
        "cpu_s": finished_cpu - started_cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "steps": steps,
        "run_dir": str(run.run_dir),
        "config": run.config.snapshot(),
        "warnings": warnings.messages,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, run.run_dir, steps)
        with open(spans_file, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
    conn.send(result)


if __name__ == "__main__":
    from channel import Parent

    parent = Parent()
    start = parent.recv()
    run_client(parent, start["settings"], start["spans"])
