"""Command-line front end: config-driven runs with machine-readable reports.

Usage:  realbloch run <config.json> [--out DIR] [--threads N] [--strict]
                                    [--resolution-scale S]

The JSON config is the reproducibility artifact; reports are byte-stable
across repeated runs with the same config and thread count.

A run builds one `classify.RealBundle`, which every task reads, so each
pipeline layer is computed at most once.  Its frames are aligned to the
oscillator's analytic section when the bands are exactly its level, and
tree-smoothed otherwise.

Exit codes: 0 success, 2 config error, 3 gap closure, 4 symmetry violation,
5 branch-cut / discretization / refinement error.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import models as model_zoo
from ._matrix import unitary_logs
# Layer functions a run reaches only through its RealBundle stay imported:
# perfbench/tracing.py wraps them by name in this module.
from .berry import (  # noqa: F401
    equivariance_residual,
    link_field,
    link_field_from_connection,
    local_connection_from_links,
)
from .classify import RealBundle, classify_real_bundle  # noqa: F401
from .curvature import chern_number, plaquette_curvature  # noqa: F401
from .errors import (
    BranchCutError,
    ConfigError,
    DiscretizationError,
    GapClosureError,
    IndeterminateHolonomyError,
    InvalidDiscretizationError,
    RealblochError,
    SymmetryInconsistencyError,
    SymmetryViolationError,
    TruncationError,
    UnsupportedBaseError,
    UnsupportedParityError,
)
from .holonomy import fixed_loop_holonomies, flat_moduli_holonomy  # noqa: F401
from .lattice import build_circle, build_sphere2, build_torus2
from .models import (
    OscillatorParams,
    oscillator_analytic_connection,
    oscillator_plaquette_flux,
    oscillator_reference_section,
)
from .spectral import (  # noqa: F401
    eigensolve_family,
    frame_from_projection,
    gap_margin,
    select_projection,
    smooth_frame_gauge,
)
from .symmetry import (  # noqa: F401
    sewing_matrix,
    verify_hamiltonian_symmetry,
    verify_projection_symmetry,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAP = 3
EXIT_SYMMETRY = 4
EXIT_REFINE = 5

KNOWN_TASKS = (
    "check-symmetry",
    "berry",
    "chern",
    "holonomy",
    "classify",
    "moduli",
    "oscillator-oracle",
)


@dataclass
class RunConfig:
    """Validated run configuration."""

    lattice: dict
    model: dict
    bands: list
    tasks: list
    out_dir: Path = Path(".")
    tolerances: dict = field(default_factory=dict)
    resolution_scale: int = 1
    threads: int = 1
    strict: bool = False
    moduli_values: list = field(default_factory=lambda: [0.0, 0.25, 0.5])

    @staticmethod
    def from_file(path: Path, **overrides) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return RunConfig.from_dict(raw, **overrides)

    @staticmethod
    def from_dict(raw: dict, **overrides) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for key in ("lattice", "model", "tasks"):
            if key not in raw:
                raise ConfigError(f"config is missing the {key!r} section")
        tasks = list(raw["tasks"])
        if not tasks:
            raise ConfigError("tasks must be a nonempty list")
        for t in tasks:
            if t not in KNOWN_TASKS:
                raise ConfigError(f"unknown task {t!r}; known: {KNOWN_TASKS}")
        cfg = RunConfig(
            lattice=dict(raw["lattice"]),
            model=dict(raw["model"]),
            bands=list(raw.get("bands", [0])),
            tasks=tasks,
            tolerances=dict(raw.get("tolerances", {})),
            resolution_scale=int(raw.get("resolution_scale", 1)),
            moduli_values=list(raw.get("moduli_values", [0.0, 0.25, 0.5])),
        )
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        return cfg


def _build_lattice(spec: dict, scale: int):
    topology = spec.get("topology")
    kind = spec.get("kind", "trivial")
    try:
        if topology == "circle":
            return build_circle(int(spec["n_sites"]) * scale, kind)
        if topology == "torus2":
            return build_torus2(
                int(spec["n1"]) * scale, int(spec["n2"]) * scale, kind
            )
        if topology == "sphere2":
            return build_sphere2(
                int(spec["n_theta"]) * scale, int(spec["n_phi"]) * scale
            )
    except KeyError as exc:
        raise ConfigError(f"lattice spec missing {exc}") from exc
    raise ConfigError(f"unknown topology {topology!r}")


def _build_model(spec: dict, lat):
    name = spec.get("name")
    params = dict(spec.get("params", {}))
    if name == "mobius_circle":
        return model_zoo.model_mobius_circle(), None
    if name == "mobius_pullback_torus":
        return model_zoo.model_mobius_pullback_torus(), None
    if name == "trivial_line":
        return model_zoo.model_trivial_line(spec.get("base", lat.base_tag), lat.dim), None
    if name == "flat_line":
        return model_zoo.model_flat_line(float(params.get("a", 0.25))), None
    if name == "degree_k_sphere":
        h, j = model_zoo.model_degree_k_sphere(int(params.get("k", 1)))
        return h, j
    if name == "oscillator":
        osc = OscillatorParams(
            level=int(params.get("level", 0)),
            n_basis=int(params.get("n_basis", 40)),
            delta=float(params.get("delta", 1.0)),
        )
        h, j = model_zoo.model_oscillator(osc, lat)
        h.oscillator_params = osc
        return h, j
    if name == "constant_diag":
        entries = np.asarray(params.get("entries", [-1.0, 1.0]), dtype=float)
        mat = np.diag(entries).astype(complex)
        from .spectral import HamiltonianFamily
        from .symmetry import SymmetryData

        return (
            HamiltonianFamily(len(entries), lambda c: mat, "constant_diag"),
            SymmetryData.identity(len(entries)),
        )
    raise ConfigError(f"unknown model {name!r}")


def run(config: RunConfig) -> int:
    """Execute the configured tasks in dependency order and write reports."""
    report = {"schema": "report_v1", "warnings": []}
    try:
        exit_code = _run_tasks(config, report)
    except ConfigError as exc:
        report["error"] = {"kind": "config", "message": str(exc)}
        exit_code = EXIT_CONFIG
    except GapClosureError as exc:
        report["error"] = {
            "kind": "gap-closure",
            "message": f"{exc}; hint: choose a different band group or model",
        }
        exit_code = EXIT_GAP
    except (SymmetryViolationError, SymmetryInconsistencyError, UnsupportedParityError) as exc:
        report["error"] = {
            "kind": "symmetry",
            "message": f"{exc}; hint: check the model's J and involution",
        }
        exit_code = EXIT_SYMMETRY
    except (
        BranchCutError,
        DiscretizationError,
        IndeterminateHolonomyError,
        TruncationError,
        InvalidDiscretizationError,
        UnsupportedBaseError,
    ) as exc:
        report["error"] = {
            "kind": "refinement",
            "message": f"{exc}; hint: increase the lattice resolution",
        }
        exit_code = EXIT_REFINE
    if config.strict and report["warnings"]:
        exit_code = exit_code or EXIT_CONFIG
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return exit_code


def _run_tasks(config: RunConfig, report: dict) -> int:
    lat = _build_lattice(config.lattice, config.resolution_scale)
    model, j = _build_model(config.model, lat)
    report["lattice"] = {
        "base": lat.base_tag,
        "n_sites": lat.n_sites,
        "n_links": lat.n_links,
        "n_plaquettes": lat.n_plaquettes,
        "fixed_sites": int(lat.fixed_sites.size),
    }
    report["model"] = config.model
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    oscillator = getattr(model, "oscillator_params", None)
    if "oscillator-oracle" in config.tasks:
        if oscillator is None:
            raise ConfigError("oscillator-oracle task needs the oscillator model")
        if sorted(set(int(b) for b in config.bands)) != [oscillator.level]:
            raise ConfigError(
                f"oscillator-oracle compares the level-{oscillator.level} band; "
                f"bands must be [{oscillator.level}], got {config.bands}"
            )

    def frame_rule(proj):
        if oscillator is not None and proj.band_indices == (oscillator.level,):
            # the analytic section spans exactly the level band
            reference = oscillator_reference_section(oscillator, lat)
            return frame_from_projection(proj, reference)
        return smooth_frame_gauge(frame_from_projection(proj), lat)

    bundle = RealBundle(model, j, lat, config.bands, config.tolerances, frame_rule)
    for task in ("check-symmetry", "berry", "chern", "holonomy", "classify",
                 "moduli", "oscillator-oracle"):
        if task not in config.tasks:
            continue
        if task == "check-symmetry":
            if bundle.is_product:
                report["check_symmetry"] = {"unitary_residual": bundle.j_residual}
            else:
                rep = bundle.symmetry
                report["check_symmetry"] = {
                    "hamiltonian_residual": rep.hamiltonian_residual,
                    "unitary_residual": rep.unitary_residual,
                    "projection_residual": bundle.projection_residual,
                    "gap_margin": bundle.band_gap,
                }
        elif task == "berry":
            report["berry"] = {"equivariance_residual": bundle.equivariance}
            skipped = _write_connection_csv(out / "connection.csv", bundle.links, lat)
            if skipped:
                report["warnings"].append(
                    f"connection.csv: {skipped} gauge-singular links skipped "
                    "(no globally smooth gauge exists for a twisted bundle)"
                )
        elif task == "chern":
            value, rounded = bundle.chern
            if abs(value - rounded) > 1e-6:
                report["warnings"].append(
                    f"chern quantization residual {abs(value - rounded):.2e}"
                )
            report["chern"] = {
                "chern_value": value,
                "chern_number": rounded,
                "quantization_residual": abs(value - rounded),
            }
            _write_curvature_csv(out / "curvature.csv", bundle.curvature, lat)
        elif task == "holonomy":
            loops = []
            for i, rec in enumerate(bundle.fixed_loops):
                tr = rec.holonomy.trace
                loops.append(
                    {
                        "loop_id": i,
                        "base_coords": [float(c) for c in lat.sites[rec.holonomy.base]],
                        "trace_re": tr.real,
                        "trace_im": tr.imag,
                        "reality_residual": rec.reality_residual,
                        "sign": rec.sign if rec.holonomy.rank == 1 else None,
                        "det_sign": rec.sign,
                    }
                )
            report["holonomy"] = {"fixed_loops": loops}
        elif task == "classify":
            result = bundle.classify()
            report["classify"] = result.to_json_dict()
            report["warnings"].extend(result.warnings)
        elif task == "moduli":
            report["moduli"] = [
                {"a": a, "holonomy_re": flat_moduli_holonomy(a).real,
                 "holonomy_im": flat_moduli_holonomy(a).imag}
                for a in config.moduli_values
            ]
        elif task == "oscillator-oracle":
            report["oscillator_oracle"] = _oscillator_oracle(
                oscillator, bundle.links, bundle.curvature, lat
            )
    return EXIT_OK


def _oscillator_oracle(params, u, curv, lat) -> dict:
    a = local_connection_from_links(u)
    dev_conn = 0.0
    for lk in range(lat.n_links):
        mid = lat.link_midpoint(lk)
        mu = int(lat.link_mu[lk])
        target = oscillator_analytic_connection(params, mid)[mu]
        dev_conn = max(dev_conn, abs(a.a[lk, 0, 0] - target))
    dev_curv = 0.0
    h1 = float(lat.link_spacing[lat.link_mu == 0][0])
    h2 = float(lat.link_spacing[lat.link_mu == 1][0])
    for p in range(lat.n_plaquettes):
        corner = lat.sites[lat.plaquette_vertices[p][0]]
        target = oscillator_plaquette_flux(params, corner, h1, h2)
        dev_curv = max(
            dev_curv, abs(curv.f[p, 0, 0] - target) / lat.plaquette_areas[p]
        )
    return {
        "connection_max_deviation": dev_conn,
        "curvature_max_deviation": dev_curv,
    }


def _write_curvature_csv(path: Path, curv, lat):
    from .curvature import chern_weil_density

    values = chern_weil_density(curv, 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "berry_curvature"])
        for p in range(lat.n_plaquettes):
            cx, cy = lat.plaquette_centers[p]
            writer.writerow([f"{cx:.12g}", f"{cy:.12g}", f"{values[p]:.12g}"])


def _write_connection_csv(path: Path, u, lat) -> int:
    """Write the per-link connection; links on the branch cut are skipped.

    Returns the number of skipped links.
    """
    logs, cut = unitary_logs(u.u)
    keep = np.flatnonzero(~cut)
    m = u.rank
    a = (logs / lat.link_spacing[keep, None, None]).reshape(keep.size, m * m)
    mids = lat.link_midpoints()[keep]
    ys = mids[:, 1] if lat.dim > 1 else np.zeros(keep.size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x", "y", "direction"]
        for r in range(m):
            for c in range(m):
                header += [f"a{r}{c}_re", f"a{r}{c}_im"]
        writer.writerow(header)
        for x, y, mu, entries in zip(
            mids[:, 0].tolist(), ys.tolist(), lat.link_mu[keep].tolist(), a.tolist()
        ):
            row = [f"{x:.12g}", f"{y:.12g}", mu]
            for z in entries:
                row += [f"{z.real:.12g}", f"{z.imag:.12g}"]
            writer.writerow(row)
    return int(cut.sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="realbloch",
        description="Topological invariants of time-reversal symmetric "
        "Hamiltonian families on discretized involutive manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON run config")
    runp.add_argument("config", type=Path)
    runp.add_argument("--out", type=Path, default=None, help="output directory")
    runp.add_argument("--threads", type=int, default=None)
    runp.add_argument("--strict", action="store_true", default=None,
                      help="warnings fail the run")
    runp.add_argument("--resolution-scale", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = RunConfig.from_file(
            args.config,
            out_dir=args.out,
            threads=args.threads,
            strict=args.strict,
            resolution_scale=args.resolution_scale,
        )
    except RealblochError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code = run(config)
    report_path = Path(config.out_dir) / "report.json"
    print(f"report written to {report_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
