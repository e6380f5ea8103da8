"""Smoke self-test of the benchmark harness at tiny lattice sizes.

    python3 perfbench/selftest.py

Checks, in about ten seconds:
- one untraced and one traced run of every workload pass their output
  checks and report exactly the metrics BENCHMARK.json lists;
- the traced counts are exact (H and J evaluations, eigensolves) and the
  trace covers the traced run;
- an op whose expected verdict is deliberately wrong counts as failed;
- the benchmark exits nonzero, printing no result, in a directory that has
  the benchmark files but no ``src/``.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import time

import run

run._prepare()

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sphere_winding": lambda: workloads.sphere_winding(12, 16),
    "oscillator_torus": lambda: workloads.oscillator_torus(16),
    "mobius_torus": lambda: workloads.mobius_torus(16),
}
OUT = run.OUT / "selftest"


def _run(workload, traced, seed=7):
    result, _ = harness.run_workload(workload, seed, 0.0, traced, time.perf_counter(), OUT)
    return result


def check_workloads(bench, problems):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, make in TINY.items():
        for traced, expected_units in ((False, e2e), (True, layers)):
            result = _run(make(), traced)
            tag = f"{name} trace={int(traced)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 2:
                problems.append(f"{tag}: {result['attempted']} ops, {result['failed']} failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected_units:
                problems.append(f"{tag}: metrics or units differ from BENCHMARK.json")
            if traced:
                check_trace(name, result["metrics"], problems)


def check_trace(name, metrics, problems):
    value = {k: v["value"] for k, v in metrics.items()}
    for prefix in ("", "lib."):
        coverage = value[prefix + "trace.coverage"]
        if not 0.5 < coverage <= 1.0 + 1e-9:
            problems.append(f"{name}: {prefix}trace.coverage {coverage}")
    if name == "sphere_winding":
        n_sites = (12 - 1) * 16 + 2  # 11 rings of 16 sites and two poles
        want = {
            "models.h_evals": 7 * n_sites,
            "models.j_evals": 8 * n_sites,
            "spectral.eigensolve_calls": 3,
            "lib.models.h_evals": 3 * n_sites,
            "lib.spectral.eigensolve_calls": 1,
        }
    elif name == "mobius_torus":
        want = {"spectral.eigensolve_calls": 0, "models.h_evals": 0}
    else:
        want = {"spectral.eigensolve_calls": 3, "lib.spectral.eigensolve_calls": 1}
    for key, expected in want.items():
        if value[key] != expected:
            problems.append(f"{name}: {key} = {value[key]}, expected {expected}")


def check_wrong_verdict(problems):
    def off_by_one(params):
        k = params["k"]
        return workloads.Expected(f"Chern {k + 1}", [k + 1], [], (-1.0) ** k)

    result = _run(workloads.sphere_winding(12, 16, expected=off_by_one), False)
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"wrong verdict not counted as failure: {result}")


def check_without_sources(problems):
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "mobius_torus",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"run without src/ exited {proc.returncode}: {proc.stdout!r}")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    try:
        check_workloads(bench, problems)
        check_wrong_verdict(problems)
        check_without_sources(problems)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
