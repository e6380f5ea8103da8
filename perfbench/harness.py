"""Closed-loop harness: one caller alternating a CLI op and a library op.

A CLI op is one ``realbloch.cli.run(RunConfig)`` with every task of the
workload, report.json and both CSVs included.  A library op is one
``classify_real_bundle`` call on a freshly built lattice and model.  Each op
is checked against the workload's expected invariants; an op that raises,
exits nonzero or fails its check counts as failed.  The end-to-end op times
are scaled to a reference host speed (see hostspeed.py).
"""

import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import realbloch
from realbloch import cli

import hostspeed
from tracing import Tracer

# extra fresh processes whose set-up time joins the median of setup_s
SETUP_PROBES = 2
# host speed kernel samples taken between the ops of an untraced run (hostspeed.py)
SPEED_SAMPLES_PER_OP = 3

# (name, unit, also reported for the library op under "lib.")
LAYER_METRICS = [
    ("lattice.build_s", "s", True),
    ("models.build_s", "s", True),
    ("models.h_evals", "count", True),
    ("models.j_evals", "count", True),
    ("models.eval_s", "s", True),
    ("models.oracle_s", "s", False),
    ("spectral.eigensolve_s", "s", True),
    ("spectral.eigensolve_calls", "count", True),
    ("spectral.select_s", "s", True),
    ("spectral.frame_s", "s", True),
    ("spectral.frame_calls", "count", True),
    ("spectral.projector_bytes", "B", True),
    ("spectral.gauge_s", "s", False),
    ("symmetry.check_s", "s", True),
    ("symmetry.check_calls", "count", True),
    ("symmetry.sewing_s", "s", True),
    ("berry.link_field_s", "s", True),
    ("berry.link_field_calls", "count", True),
    ("berry.equivariance_s", "s", True),
    ("berry.log_s", "s", False),
    ("curvature.flux_s", "s", True),
    ("curvature.chern_s", "s", True),
    ("curvature.flux_calls", "count", True),
    ("holonomy.fixed_loops_s", "s", True),
    ("classify.self_s", "s", True),
    ("report.csv_s", "s", False),
    ("cli.self_s", "s", False),
    ("cli.bytes_written", "B", False),
    ("trace.overhead", "ratio", True),
    ("trace.coverage", "ratio", True),
]


def _call(tracer, name, fn):
    return tracer.span(name, fn) if tracer else fn()


class Op:
    """One op's inputs; ``kind`` is "cli" or "lib"."""

    def __init__(self, workload, kind, rng, out_dir, tracer=None):
        self.workload, self.kind, self.out_dir = workload, kind, out_dir
        self.params = workload.pick(rng)
        if kind == "cli":
            self.config = workload.cli_config(self.params, out_dir)
        else:
            self.lat = _call(tracer, "lattice.build", workload.build_lattice)
            self.model, self.j = _call(
                tracer, "models.build", lambda: workload.build_model(self.params, self.lat)
            )

    def run(self, tracer=None):
        """Run once; return (seconds, problems, bytes written)."""
        w = self.workload
        if self.kind == "cli":
            root, call = "cli", lambda: cli.run(self.config)
        else:
            root, call = "classify", lambda: realbloch.classify_real_bundle(
                self.model, self.j, self.lat, w.lib_bands, threads=1
            )
        t0 = time.perf_counter()
        out = _call(tracer, root, call)
        seconds = time.perf_counter() - t0
        if self.kind == "lib":
            return seconds, w.check_lib(out, self.params), 0
        try:
            problems = w.check_cli(out, self.out_dir, self.params)
            written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return seconds, problems, written


def _speed_block():
    return [hostspeed.sample() for _ in range(SPEED_SAMPLES_PER_OP)]


def run_ops(workload, rng, seconds, out_root, first_ops, traced):
    """Closed loop until the next op would end past ``seconds``.

    Untraced runs alternate CLI and library ops, and time the host speed
    kernel between ops: an op's scale is ``REFERENCE_S`` over the median of
    the kernel samples just before and just after it.  Traced runs cycle
    (CLI, traced CLI, library, traced library), so that each traced op has
    an untraced twin for the overhead ratio; they take no kernel samples and
    their scale is 1.  At least one full cycle runs.  Returns (records,
    tracer); a record is (kind, traced, seconds, ok, op, scale).
    """
    tracer = Tracer() if traced else None
    cycle = [("cli", False), ("cli", True), ("lib", False), ("lib", True)] \
        if traced else [("cli", False), ("lib", False)]
    records, last = [], {}
    start = time.perf_counter()
    before = None if traced else _speed_block()
    index = 0
    while True:
        kind, with_trace = cycle[index % len(cycle)]
        elapsed = time.perf_counter() - start
        if index >= len(cycle) and elapsed + last.get((kind, with_trace), 0.0) > seconds:
            break
        t = tracer if with_trace else None
        if t is not None:
            t.op = index
            t.install()
        try:
            op = first_ops.pop(kind) if kind in first_ops and t is None \
                else Op(workload, kind, rng, out_root / f"op{index}", t)
            secs, problems, written = op.run(t)
        except Exception:  # the loop reports a failed op and goes on
            traceback.print_exc(file=sys.stderr)
            secs, problems, written = time.perf_counter() - start - elapsed, ["raised"], 0
        finally:
            if t is not None:
                t.uninstall()
        scale = 1.0
        if before is not None:
            after = _speed_block()
            scale = hostspeed.REFERENCE_S / statistics.median(before + after)
            before = after
        print(f"{workload.name} op {index} {kind}{' traced' if t else ''} "
              f"{secs:.4f} s scale {scale:.4f} "
              f"{'FAILED ' + str(problems) if problems else 'ok'}", file=sys.stderr)
        if t is not None and written:
            t.add("cli.bytes_written", written)
        last[(kind, with_trace)] = time.perf_counter() - start - elapsed
        records.append((kind, with_trace, secs, not problems, index, scale))
        index += 1
    return records, tracer


def end_to_end(records, setup_times):
    """Median scaled op times (see hostspeed.py), set-up time, peak memory."""
    def median(kind, scaled=True):
        return statistics.median(s * (c if scaled else 1.0)
                                 for k, _, s, _, _, c in records if k == kind)

    print(f"wall-time medians: run {median('cli', False):.4f} s, "
          f"classify {median('lib', False):.4f} s", file=sys.stderr)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "run_s": {"value": median("cli"), "unit": "s"},
        "classify_s": {"value": median("lib"), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def per_layer(records, tracer):
    metrics = {}
    for kind, prefix in (("cli", ""), ("lib", "lib.")):
        root = "cli" if kind == "cli" else "classify"
        untraced = statistics.median(s for k, t, s, _, _, _ in records if k == kind and not t)
        # a failed op may lack spans; its counts would not be comparable
        summaries = [tracer.op_summary(op, root) for k, t, _, ok, op, _ in records
                     if k == kind and t and ok] or [{"root_s": 0.0}]
        for name, unit, lib in LAYER_METRICS:
            if kind == "lib" and not lib:
                continue
            if name == "trace.overhead":
                values = [s["root_s"] / untraced for s in summaries]
            elif name == "trace.coverage":
                values = [s.get("covered_s", 0.0) / (s["root_s"] or 1.0) for s in summaries]
            elif name == f"{root}.self_s":
                values = [s.get("root_self_s", 0.0) for s in summaries]
            else:
                key = name[: -len(".self_s")] + "_s" if name.endswith(".self_s") else name
                values = [s.get(key, 0) for s in summaries]
            # counts repeat exactly between ops: report one of them, not a mean
            median = statistics.median_low if unit in ("count", "B") else statistics.median
            metrics[prefix + name] = {"value": median(values), "unit": unit}
    return metrics


def build_first_ops(workload, rng, out_root):
    """Inputs of the first CLI op and the first library op (part of set-up)."""
    return {kind: Op(workload, kind, rng, out_root / f"first-{kind}") for kind in ("cli", "lib")}


def run_workload(workload, seed, seconds, traced, t_start, out_base, setup_probe=None):
    """Run one workload and return (result object, tracer or None).

    ``t_start`` is when the process started, before numpy was imported, so
    the first set-up time covers the imports; ``setup_probe()`` returns the
    set-up time of one more fresh process (untraced runs take several).
    """
    rng = random.Random(seed)
    out_root = out_base / f"{workload.name}-{seed}-{os.getpid()}"
    first_ops = build_first_ops(workload, rng, out_root)
    setup_times = [time.perf_counter() - t_start]
    if not traced and setup_probe is not None:
        setup_times += [setup_probe() for _ in range(SETUP_PROBES)]
    try:
        records, tracer = run_ops(workload, rng, seconds, out_root, first_ops, traced)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    failed = sum(1 for r in records if not r[3])
    metrics = per_layer(records, tracer) if traced else end_to_end(records, setup_times)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }, tracer
