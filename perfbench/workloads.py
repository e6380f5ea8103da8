"""The benchmark's workloads: inputs built from a seed, and output checks.

Every op gets freshly built inputs (lattice, model, output directory), so a
cache kept on any of them cannot carry over from one op to the next; a user
who runs the CLI once never gets such a gain either.  The seed picks only
the model parameters listed per workload; sizes are fixed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import realbloch as rb
from realbloch import cli

# Stated tolerances for the gauge-invariant outputs.
CHERN_TOL = 1e-9  # |chern_value - integer|, as in the sphere acceptance test
TRACE_TOL = 1e-9  # |trace_re - expected sign| of a rank-1 fixed-loop holonomy
# Oscillator oracle: max deviation of link connection and plaquette curvature
# from the closed form, per h^2 (h = 2 pi / n, second-order convergence).
# Measured at 48 x 48, N = 40: at most 0.17 h^2 for delta in {0.8, 1, 1.25}.
ORACLE_TOL_PER_H2 = 0.5


@dataclass(frozen=True)
class Expected:
    verdict: str
    free: list
    torsion: list
    loop_trace: float  # expected trace_re of every CLI fixed loop


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``lattice`` is the CLI lattice section; ``pick(rng)`` draws the model
    parameters of one op; ``model(params)`` gives the CLI model section;
    ``expected(params)`` the invariants both ops must report.
    """

    name: str
    lattice: dict
    pick: Callable
    model: Callable
    expected: Callable
    cli_bands: list
    lib_bands: list
    cli_tasks: tuple
    oracle: bool = False

    # -- inputs -------------------------------------------------------

    def cli_config(self, params, out_dir: Path):
        return cli.RunConfig.from_dict(
            {
                "lattice": dict(self.lattice),
                "model": self.model(params),
                "bands": list(self.cli_bands),
                "tasks": list(self.cli_tasks),
            },
            out_dir=out_dir,
            threads=1,
        )

    def build_lattice(self):
        spec = self.lattice
        if spec["topology"] == "sphere2":
            return rb.build_sphere2(spec["n_theta"], spec["n_phi"])
        return rb.build_torus2(spec["n1"], spec["n2"], spec["kind"])

    def build_model(self, params, lat):
        """(model, symmetry data) for the library op, through the public API."""
        spec = self.model(params)
        name, p = spec["name"], spec.get("params", {})
        if name == "degree_k_sphere":
            return rb.model_degree_k_sphere(p["k"])
        if name == "oscillator":
            osc = rb.OscillatorParams(
                level=p["level"], n_basis=p["n_basis"], delta=p["delta"]
            )
            return rb.model_oscillator(osc, lat)
        if name == "mobius_pullback_torus":
            return rb.model_mobius_pullback_torus(), None
        raise ValueError(f"no library constructor for model {name!r}")

    # -- checks -------------------------------------------------------

    def check_cli(self, code: int, out_dir: Path, params) -> list:
        """Problems with one CLI run's exit code and outputs ([] if none)."""
        if code != 0:
            return [f"exit code {code}"]
        report = json.loads((out_dir / "report.json").read_text())
        if "error" in report:
            return [f"report error {report['error']}"]
        exp = self.expected(params)
        problems = _check_invariants(
            report["classify"], report["classify"]["diagnostics"], exp
        )
        chern = report["chern"]
        if chern["chern_number"] != exp.free[0]:
            problems.append(f"chern_number {chern['chern_number']} != {exp.free[0]}")
        if abs(chern["chern_value"] - exp.free[0]) > CHERN_TOL:
            problems.append(f"chern task value {chern['chern_value']!r}")
        loops = report["holonomy"]["fixed_loops"]
        if not loops:
            problems.append("no fixed loops")
        for loop in loops:
            if abs(loop["trace_re"] - exp.loop_trace) > TRACE_TOL:
                problems.append(f"loop {loop['loop_id']} trace_re {loop['trace_re']!r}")
        if self.oracle:
            h = 2.0 * math.pi / self.lattice["n1"]
            tol = ORACLE_TOL_PER_H2 * h * h
            for key, dev in report["oscillator_oracle"].items():
                if not dev <= tol:
                    problems.append(f"oracle {key} {dev:.3e} above {tol:.3e}")
        for csv_name in ("connection.csv", "curvature.csv"):
            path = out_dir / csv_name
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"{csv_name} missing or empty")
        return problems

    def check_lib(self, result, params) -> list:
        return _check_invariants(
            result.to_json_dict(), result.diagnostics, self.expected(params)
        )


def _check_invariants(classified: dict, diagnostics: dict, exp: Expected) -> list:
    problems = []
    if classified["verdict"] != exp.verdict:
        problems.append(f"verdict {classified['verdict']!r} != {exp.verdict!r}")
    if list(classified["free"]) != exp.free:
        problems.append(f"free {classified['free']} != {exp.free}")
    if list(classified["torsion"]) != exp.torsion:
        problems.append(f"torsion {classified['torsion']} != {exp.torsion}")
    if exp.free and abs(diagnostics["chern_value"] - exp.free[0]) > CHERN_TOL:
        problems.append(f"chern_value {diagnostics['chern_value']!r}")
    return problems


ALL_TASKS = ("check-symmetry", "berry", "chern", "holonomy", "classify")


def _sphere_expected(params):
    k = params["k"]
    # the equator is a great circle the d-vector winds k times: Berry phase k pi
    return Expected(f"Chern {k}", [k], [], (-1.0) ** k)


def sphere_winding(n_theta=96, n_phi=128, expected=_sphere_expected):
    return Workload(
        name="sphere_winding",
        lattice={"topology": "sphere2", "n_theta": n_theta, "n_phi": n_phi},
        pick=lambda rng: {"k": rng.choice((-3, -2, -1, 1, 2, 3))},
        model=lambda p: {"name": "degree_k_sphere", "params": {"k": p["k"]}},
        expected=expected,
        cli_bands=[0],
        lib_bands=[0],
        cli_tasks=ALL_TASKS,
    )


def oscillator_torus(n=48, n_basis=40):
    return Workload(
        name="oscillator_torus",
        lattice={"topology": "torus2", "n1": n, "n2": n, "kind": "eta1"},
        pick=lambda rng: {"delta": rng.choice((0.8, 1.0, 1.25))},
        model=lambda p: {
            "name": "oscillator",
            "params": {"level": 1, "n_basis": n_basis, "delta": p["delta"]},
        },
        expected=lambda p: Expected("free 0, torsion (+1, +1)", [0], [1, 1], 1.0),
        cli_bands=[1],
        # rank 2: the general m > 1 path of every layer
        lib_bands=[0, 1],
        cli_tasks=ALL_TASKS + ("oscillator-oracle",),
        oracle=True,
    )


def mobius_torus(n=128):
    return Workload(
        name="mobius_torus",
        lattice={"topology": "torus2", "n1": n, "n2": n, "kind": "eta"},
        pick=lambda rng: {},
        model=lambda p: {"name": "mobius_pullback_torus"},
        expected=lambda p: Expected("free 0, torsion (-1, -1)", [0], [-1, -1], -1.0),
        cli_bands=[0],
        lib_bands=None,
        cli_tasks=ALL_TASKS,
    )


WORKLOADS = {
    "sphere_winding": sphere_winding,
    "oscillator_torus": oscillator_torus,
    "mobius_torus": mobius_torus,
}
