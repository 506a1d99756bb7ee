"""Smoke check of the benchmark harness on tiny landscapes; takes about 15 s.

    python3 perfbench/smoke.py

For every workload it runs ``run.py`` untraced and traced at a tiny scale
and asserts that the run passed the correctness gate and printed every
metric of BENCHMARK.json with its unit, in the result line and in the
human-readable lines. It then perturbs the oracle, the report, the logged
warnings and the CSV reference of a real run and asserts that the gate
reports each perturbation, so the gate is not vacuous. Exits non-zero on the first failed assertion.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SCALE = 0.05


def check_cli(workload: str, trace: int, spec: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
               "--scale", str(SCALE)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    assert done.returncode == 0, (
        f"{command} exited {done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == wanted, f"{workload}: result metrics differ from BENCHMARK.json"
    shown = {tuple(line.split()[1:2] + line.split()[-1:]) for line in lines[:-1]}
    for name, unit in wanted.items():
        assert (name, unit) in shown, f"{workload}: {name} [{unit}] not printed"
    print(f"ok  {workload} trace={trace}: {len(wanted)} metrics, "
          f"{result['attempted']} operations")


def check_gate_fires() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import gate
    import landscape
    from fairprobe import mockrdr

    workload = "many-small"
    oracle = mockrdr.expected_scores(landscape.build_script(workload, SEED, SCALE))
    bench.OUTPUT.mkdir(exist_ok=True)
    work = bench.OUTPUT / "smoke"
    result = bench.pipeline_run(workload, SEED, SCALE, work, None)
    run_dir = Path(result["run_dir"])
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert gate.report_problems(doc, oracle) == [], "clean run failed the gate"

    some_repo = next(iter(oracle["repositories"]))
    perturbations = {
        "d_size": lambda o: o.update(d_size=o["d_size"] + 1),
        "q_size": lambda o: o["q_sizes"].update(geo=o["q_sizes"]["geo"] + 1),
        "rareness": lambda o: o["rareness"].update(lic=o["rareness"]["lic"] + 1e-9),
        "weight": lambda o: o["weights"].update(ret=o["weights"]["ret"] - 1e-9),
        "total_rareness": lambda o: o.update(total_rareness=o["total_rareness"] + 1e-9),
        "met": lambda o: o["repositories"][some_repo]["met"].update(
            chrono=o["repositories"][some_repo]["met"]["chrono"] + 1),
        "avrelative": lambda o: o["repositories"][some_repo].update(
            avrelative=o["repositories"][some_repo]["avrelative"] + 1e-9),
        "repositories": lambda o: o["repositories"].pop(some_repo),
    }
    for label, perturb in perturbations.items():
        wrong = copy.deepcopy(oracle)
        perturb(wrong)
        assert gate.report_problems(doc, wrong), f"gate missed a perturbed {label}"
    others = 0
    for label, key in (("NaN rareness", "rareness"), ("NaN weight", "weight")):
        wrong = copy.deepcopy(doc)
        wrong["criteria"][0][key] = float("nan")
        assert gate.report_problems(wrong, oracle), f"gate missed a {label}"
        others += 1
    wrong = copy.deepcopy(doc)
    wrong["warnings"] = ["harvest incomplete"]
    assert gate.report_problems(wrong, oracle), "gate missed a report warning"
    assert bench.check(result, oracle, {}) == [], "clean run failed the gate"
    logged = dict(result, warnings=["fairprobe.oaipmh: request failed, 1 attempts left"])
    assert bench.check(logged, oracle, {}), "gate missed a logged warning"
    reference = {"criteria.csv": "0" * 64}
    assert bench.check(result, oracle, reference), "gate missed a changed CSV"
    others += 3
    shutil.rmtree(work)
    print(f"ok  gate fires on {len(perturbations) + others} perturbations")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_cli(workload, trace, spec)
    check_gate_fires()
    return 0


if __name__ == "__main__":
    sys.exit(main())
