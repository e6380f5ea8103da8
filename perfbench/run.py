"""realbloch benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sphere_winding --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, one table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it, ``machine: {...}``, records the machine and packages.
See README.md in this directory for the workloads and metrics.
"""

import time

T_START = time.perf_counter()  # before numpy is imported: setup_s counts imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sphere_winding", "oscillator_torus", "mobius_torus")
# one compute thread: the benchmark is one caller in one process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120


def _prepare():
    """Pin BLAS to one thread and put the checkout's ``src`` first on the path."""
    if not (SRC / "realbloch" / "__init__.py").is_file():
        sys.exit(f"error: no realbloch sources under {SRC}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import realbloch

    if Path(realbloch.__file__).resolve().parent != SRC / "realbloch":
        sys.exit(f"error: imported realbloch from {realbloch.__file__}, not {SRC}")


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _probe_setup(workload, seed):
    """Set-up time of one fresh process, as the main process measures its own."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_all(args):
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        rows.append((name, lines[-2], json.loads(lines[-1])))
    print(rows[0][1])
    for name, _, result in rows:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
        if not args.trace:
            print(f"  {'fail_frac':32s} {fail_frac:>14.6g} ratio")
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.probe_setup:
        harness.build_first_ops(workload, random.Random(args.seed), OUT)
        print(time.perf_counter() - T_START)
        return 0
    result, tracer = harness.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), T_START, OUT,
        setup_probe=lambda: _probe_setup(args.workload, args.seed),
    )
    info = machine_info()
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"machine": info, "workload": args.workload, "seed": args.seed})
    print("machine: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
