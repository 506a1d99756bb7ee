"""fairprobe benchmark: all five steps against a seeded mock landscape.

One run of the benchmark repeats a pipeline run for ``--seconds``, starting
no pipeline run that would likely end past them. Each pipeline run starts
a landscape process that serves the seeded workload (``landscape.py``) and
a fresh client process that runs steps 1-5 and the report against it
(``client.py``); the client receives only URLs, and both processes have
ended before the next pipeline run starts (``channel.py``).
Every pipeline run is checked against the ``mockrdr`` oracle (``gate.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (operations summed over the pipeline runs, see
``gate.operations``; a pipeline run that fails the gate adds one failure)
and ``metrics``: the medians of the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced pipeline runs, and its tracing overhead is
the median traced ``run_s`` minus the median untraced one.

Load is a closed loop: every pool of the client has 2 workers and each
worker sends its next request only after the previous reply. Politeness
delays are 0; ``delay_floor_s`` reports the floor the default delays of
``RunConfig()`` would put on the same requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path
from typing import Any

from fairprobe import mockrdr
from fairprobe.config import RunConfig

import gate
import landscape
from channel import Child, ChildError

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"
WORKERS = 2  # nproc of the machine the bounds were set on
TIMEOUT_S = 10.0
MIN_RUNS = {False: 3, True: 2}
SETUP_LIMIT_S = 60.0
RUN_LIMIT_S = 120.0


def run_config(urls: dict[str, str], out: Path) -> dict[str, Any]:
    """Settings of every client, restricted to the fields RunConfig has."""
    wanted: dict[str, Any] = {
        "registry_url": urls["registry_url"],
        "doi_resolver": urls["resolver_base"],
        "out": str(out),
        "timeout": TIMEOUT_S,
        "politeness_delay": 0.0,
        "per_host_delay": 0.0,
        "workers_harvest": WORKERS,
        "workers_select": WORKERS,
        "workers_probe": WORKERS,
        "detail_workers": WORKERS,
    }
    known = {f.name for f in fields(RunConfig)}
    return {key: value for key, value in wanted.items() if key in known}


def delay_floor(counts: dict[str, Any]) -> float:
    """Seconds the default politeness delays put on these requests.

    Per step, the default delay of its gate times the requests to the
    busiest key of that gate: the OAI endpoint in steps 2 and 3, host:port
    in step 5.
    """
    defaults = RunConfig()
    busiest = {name: max(counts[name].values(), default=0)
               for name in ("formats", "records", "probe")}
    return (
        defaults.politeness_delay * (busiest["formats"] + busiest["records"])
        + defaults.per_host_delay * busiest["probe"]
    ) / 1000.0


def pipeline_run(workload: str, seed: int, scale: float, work: Path,
                 spans_file: Path | None) -> dict[str, Any]:
    """One pipeline run against a landscape of its own; nothing is checked yet.

    Both child processes have ended when this returns, on every path.
    """
    started = time.perf_counter()
    land = Child("landscape", "landscape.py", workload, str(seed), repr(scale))
    try:
        urls = land.recv("start", SETUP_LIMIT_S)
        proc = Child("client", "client.py")
        result = None
        try:
            proc.send({"settings": run_config(urls, work),
                       "spans": str(spans_file) if spans_file else None})
            if proc.recv("start", SETUP_LIMIT_S) != "ready":
                raise ChildError("client start: unexpected message")
            setup_s = time.perf_counter() - started
            proc.send("go")
            result = proc.recv("pipeline run", RUN_LIMIT_S)
        finally:
            # a client that has not answered may still be running the pipeline
            proc.stop(grace=10.0 if result is not None else 0.0)
        land.send("counts")
        counts = land.recv("counts", SETUP_LIMIT_S)
    finally:
        land.stop()
    result.update(
        setup_s=setup_s,
        landscape_cpu_s=counts["cpu_s"],
        requests=counts["requests"],
        delay_floor_s=delay_floor(counts),
        traced=spans_file is not None,
    )
    return result


def check(result: dict[str, Any], oracle: dict[str, Any],
          reference: dict[str, str]) -> list[str]:
    """Gate one pipeline run; fills ``reference`` with the first CSV digests."""
    run_dir = Path(result["run_dir"])
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    problems = gate.report_problems(doc, oracle)
    problems += [f"logged {message}" for message in result["warnings"]]
    for name, content in gate.report_files(run_dir).items():
        digest = hashlib.sha256(content).hexdigest()
        if reference.setdefault(name, digest) != digest:
            problems.append(f"{name} differs from an earlier run of this seed")
    result["attempted"], result["failed"] = gate.operations(run_dir)
    return problems


def metric_names(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def summarize(runs: list[dict[str, Any]]) -> tuple[dict[str, float], dict[str, float]]:
    """Medians of the end-to-end metrics, and of the per-layer ones."""
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    e2e = {
        name: statistics.median(r[name] for r in plain)
        for name in ("run_s", "cpu_s", "setup_s", "peak_rss_mb", "requests",
                     "delay_floor_s")
    }
    e2e["failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    layers: dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        layers["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) - e2e["run_s"]
        )
        layers["failed_share"] = e2e["failed_share"]
    for name in plain[0]["steps"]:
        e2e[name] = statistics.median(r["steps"][name] for r in plain)
    return e2e, layers


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: float,
          sections: tuple[str, ...]) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns the printed result and the full record.

    The result's metrics are those of the given BENCHMARK.json sections.
    """
    script = landscape.build_script(workload, seed, scale)
    oracle = mockrdr.expected_scores(script)
    OUTPUT.mkdir(exist_ok=True)
    reference: dict[str, str] = {}  # CSV digests of the first pipeline run
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUTPUT))
    runs: list[dict[str, Any]] = []
    problems: list[str] = []
    failed_runs = 0
    durations: list[float] = []
    started = time.perf_counter()
    try:
        # stop before a pipeline run that would likely end past the deadline
        while len(runs) < MIN_RUNS[trace] or (
                time.perf_counter() - started + statistics.median(durations) <= seconds):
            traced = trace and len(runs) % 2 == 1
            spans = OUTPUT / f"spans-{workload}-{seed}.ndjson" if traced else None
            begun = time.perf_counter()
            result = pipeline_run(workload, seed, scale, work, spans)
            found = check(result, oracle, reference)
            shutil.rmtree(result["run_dir"])
            runs.append(result)
            failed_runs += bool(found)
            durations.append(time.perf_counter() - begun)
            problems += [f"run {len(runs)}: {p}" for p in found]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, layers = summarize(runs)
    values = {"end_to_end": e2e, "per_layer": layers}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs) + failed_runs,
        "metrics": {
            name: {"value": values[section][name], "unit": unit}
            for section in sections for name, unit in metric_names(section)
        },
    }
    record = {
        "workload": workload, "seed": seed, "scale": scale, "seconds": seconds,
        "trace": trace, "config": runs[0]["config"], "problems": problems,
        "end_to_end": e2e, "per_layer": layers, "runs": runs,
    }
    (OUTPUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, record


def report(record: dict[str, Any]) -> None:
    """Human-readable lines: every metric with its unit, then the problems."""
    units = dict(metric_names("end_to_end") + metric_names("per_layer"))
    workload = record["workload"]
    traced = sum(r["traced"] for r in record["runs"])
    print(f"# {workload} seed={record['seed']} config="
          f"{json.dumps(record['config'], sort_keys=True)}")
    for section, runs in (("end_to_end", len(record["runs"]) - traced),
                          ("per_layer", traced)):
        if runs:
            print(f"# {workload} {section}: medians of {runs} pipeline runs")
        for name, value in record[section].items():
            print(f"{workload:16} {name:32} {value:>14.6g} {units[name]}")
    for problem in record["problems"]:
        print(f"{record['workload']:16} FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*landscape.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="landscape size factor; the smoke check uses a tiny one")
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so its finally blocks stop the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # "all" runs every workload traced: its untraced pipeline runs give the
    # end-to-end medians, its traced ones the per-layer metrics, and its
    # result line holds both per workload
    everything = args.workload == "all"
    workloads = list(landscape.WORKLOADS) if everything else [args.workload]
    trace = everything or bool(args.trace)
    if everything:
        sections: tuple[str, ...] = ("end_to_end", "per_layer")
    else:
        sections = ("per_layer",) if trace else ("end_to_end",)
    results = {}
    try:
        for workload in workloads:
            results[workload], record = bench(workload, args.seed, args.seconds,
                                              trace, args.scale, sections)
            report(record)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if everything else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1
