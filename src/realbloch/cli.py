"""Command-line front end: config-driven runs with machine-readable reports.

Usage:  realbloch run <config.json> [--out DIR] [--strict] [--resolution-scale S]

The JSON config is the reproducibility artifact; reports are byte-stable
across repeated runs with the same config.

A run builds one `classify.RealBundle`, which every task reads, so each
pipeline layer is computed at most once.  Its frames are aligned to the
oscillator's analytic section when the bands are exactly its level, and
tree-smoothed otherwise.

Exit codes: 0 success, 2 config error, 3 gap closure, 4 symmetry violation,
5 branch-cut / discretization / refinement error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
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
from .curvature import QUANTIZATION_WARN, chern_weil_density
from .curvature import chern_number, plaquette_curvature  # noqa: F401
from .errors import (
    BranchCutError,
    ConfigError,
    DiscretizationError,
    DomainError,
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
    HamiltonianFamily,
    band_selection,
    constant,
    eigensolve_family,
    frame_from_projection,
    gap_margin,
    index_blocks,
    select_projection,
    smooth_frame_gauge,
)
from .symmetry import (  # noqa: F401
    SymmetryData,
    sewing_matrix,
    verify_hamiltonian_symmetry,
    verify_projection_symmetry,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAP = 3
EXIT_SYMMETRY = 4
EXIT_REFINE = 5
# how run() reports each failure: (errors, report kind, exit code, hint)
FAILURES = (
    ((ConfigError, UnsupportedBaseError), "config", EXIT_CONFIG, None),
    ((GapClosureError,), "gap-closure", EXIT_GAP,
     "choose a different band group or model"),
    ((SymmetryViolationError, SymmetryInconsistencyError, UnsupportedParityError),
     "symmetry", EXIT_SYMMETRY, "check the model's J and involution"),
    ((BranchCutError, DiscretizationError, IndeterminateHolonomyError,
      InvalidDiscretizationError),
     "refinement", EXIT_REFINE, "increase the lattice resolution"),
    ((TruncationError,), "refinement", EXIT_REFINE, None),  # it names n_basis
)

# coordinate dimension of the models that live on one base dimension
MODEL_DIMS = {
    "mobius_circle": 1,
    "flat_line": 1,
    "mobius_pullback_torus": 2,
    "degree_k_sphere": 2,
}

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
    threads: int = 1  # no effect; the benchmark harness still passes it
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
        tasks = raw["tasks"]
        if not isinstance(tasks, list) or not tasks:
            raise ConfigError(f"tasks must be a nonempty list, got {tasks!r}")
        for t in tasks:
            if t not in KNOWN_TASKS:
                raise ConfigError(f"unknown task {t!r}; known: {KNOWN_TASKS}")
        cfg = RunConfig(
            lattice=_read(raw, "lattice", dict),
            model=_read(raw, "model", dict),
            bands=_read(raw, "bands", list, [0]),
            tasks=tasks,
            tolerances=_read(raw, "tolerances", _numbers_by_key, {}),
            resolution_scale=_read(raw, "resolution_scale", _integer, 1),
            moduli_values=_read(raw, "moduli_values", _numbers, [0.0, 0.25, 0.5]),
        )
        # an override of None keeps the file's value; an unknown name raises
        # TypeError
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        if cfg.resolution_scale < 1:
            raise ConfigError(f"resolution_scale {cfg.resolution_scale} is below 1")
        return cfg


def _number(value) -> float:
    """A JSON number, as a float: a string or a boolean is not one."""
    if type(value) not in (int, float):
        raise TypeError("not a number")
    return float(value)


def _real(value) -> float:
    """A finite JSON number, as a float."""
    number = _number(value)
    if not np.isfinite(number):
        raise ValueError("not finite")
    return number


def _numbers(value) -> list:
    """A JSON list of finite numbers, as floats (a string is not one)."""
    finite = (type(a) in (int, float) and np.isfinite(a) for a in value)
    if not (isinstance(value, list) and all(finite)):
        raise TypeError("expected a list of finite numbers")
    return [float(a) for a in value]


def _numbers_by_key(section) -> dict:
    """A JSON object of numbers, as floats; their range, finiteness
    included, is the consumer's check."""
    section = dict(section)
    return {key: _read(section, key, _number) for key in section}


def _integer(value) -> int:
    """A JSON integer, or a float of integral value; a boolean is not one."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("not an integer")
    return int(value)


def _read(section: dict, key: str, convert, default=None):
    """convert(section[key]), falling back to `default` when one is given;
    a value that convert rejects is a ConfigError naming the key."""
    value = section[key] if default is None else section.get(key, default)
    try:
        return convert(value)
    except ConfigError:  # a nested _read names its own key
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc


def _build_lattice(spec: dict, scale: int):
    topology = spec.get("topology")
    kind = spec.get("kind", "trivial")

    def size(key):
        return _read(spec, key, _integer) * scale

    try:
        if topology == "circle":
            return build_circle(size("n_sites"), kind)
        if topology == "torus2":
            return build_torus2(size("n1"), size("n2"), kind)
        if topology == "sphere2":
            return build_sphere2(size("n_theta"), size("n_phi"))
    except KeyError as exc:
        raise ConfigError(f"lattice spec missing {exc}") from exc
    except DomainError as exc:  # an unknown involution kind
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown topology {topology!r}")


def _build_model(spec: dict, lat):
    name = spec.get("name")
    params = _read(spec, "params", dict, {})
    if name == "mobius_circle":
        return model_zoo.model_mobius_circle(), None
    if name == "mobius_pullback_torus":
        return model_zoo.model_mobius_pullback_torus(), None
    if name == "trivial_line":
        return model_zoo.model_trivial_line(spec.get("base", lat.base_tag), lat.dim), None
    if name == "flat_line":
        return model_zoo.model_flat_line(_read(params, "a", _real, 0.25)), None
    if name == "degree_k_sphere":
        return model_zoo.model_degree_k_sphere(_read(params, "k", _integer, 1))
    if name == "oscillator":
        osc = OscillatorParams(
            level=_read(params, "level", _integer, 0),
            n_basis=_read(params, "n_basis", _integer, 40),
            delta=_read(params, "delta", _real, 1.0),
        )
        h, j = model_zoo.model_oscillator(osc, lat)
        h.oscillator_params = osc
        return h, j
    if name == "constant_diag":
        entries = _read(params, "entries", _numbers, [-1.0, 1.0])
        mat = np.diag(entries).astype(complex)
        return (
            HamiltonianFamily(len(entries), constant(mat), "constant_diag"),
            SymmetryData.identity(len(entries)),
        )
    raise ConfigError(f"unknown model {name!r}")


def run(config: RunConfig) -> int:
    """Execute the configured tasks in dependency order and write reports."""
    report = {"schema": "report_v1", "warnings": []}
    try:
        exit_code = _run_tasks(config, report)
    except tuple(cls for errors, *_ in FAILURES for cls in errors) as exc:
        kind, exit_code, hint = next(f[1:] for f in FAILURES if isinstance(exc, f[0]))
        message = str(exc) if hint is None else f"{exc}; hint: {hint}"
        report["error"] = {"kind": kind, "message": message}
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
    try:
        model, j = _build_model(config.model, lat)
    except ValueError as exc:  # a parameter the model constructor rejects
        raise ConfigError(str(exc)) from exc
    name = config.model["name"]  # a known model name once it is built
    if MODEL_DIMS.get(name, lat.dim) != lat.dim:
        raise ConfigError(
            f"model {name!r} has {MODEL_DIMS[name]}-dimensional coordinates, "
            f"lattice {lat.base_tag} has {lat.dim}"
        )
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

    def frame_rule(proj):
        if oscillator is not None and proj.band_indices == (oscillator.level,):
            # the analytic section spans exactly the level band
            reference = oscillator_reference_section(oscillator, lat)
            return frame_from_projection(proj, reference)
        return smooth_frame_gauge(frame_from_projection(proj), lat)

    try:  # bad bands or an unknown tolerance key
        if isinstance(model, HamiltonianFamily):
            band_selection(config.bands, model.dimension)
        bundle = RealBundle(model, j, lat, config.bands, config.tolerances, frame_rule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "oscillator-oracle" in config.tasks:
        if oscillator is None:
            raise ConfigError("oscillator-oracle task needs the oscillator model")
        if sorted(set(config.bands)) != [oscillator.level]:
            raise ConfigError(
                f"oscillator-oracle compares the level-{oscillator.level} band; "
                f"bands must be [{oscillator.level}], got {config.bands}"
            )
    for task in KNOWN_TASKS:  # in dependency order
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
            if abs(value - rounded) > QUANTIZATION_WARN:
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
    """Max deviation of the link connection and the plaquette curvature from
    the closed forms, each evaluated once over all links and plaquettes."""
    a = local_connection_from_links(u, lat).a[:, 0, 0]
    target = oscillator_analytic_connection(params, lat.link_midpoints())
    dev_conn = np.abs(a - target[np.arange(lat.n_links), lat.link_mu]).max()
    corners = lat.sites[lat.plaquette_corners[:, 0]]
    flux = oscillator_plaquette_flux(params, corners, *lat.grid_spacing)
    dev_curv = (np.abs(curv.f[:, 0, 0] - flux) / lat.plaquette_areas).max()
    return {
        "connection_max_deviation": float(dev_conn),
        "curvature_max_deviation": float(dev_curv),
    }


def _write_csv(path: Path, header: list, row_format: str, columns: list) -> None:
    """One row per entry of the columns, each value printed by its
    `row_format` spec, laid out as csv.writer does (CRLF line ends).

    Each distinct value of a column (a float by its bits, so -0.0 keeps its
    sign) is formatted once.  Each row block gathers those strings as
    NUL-padded bytes into a (rows, width) uint8 matrix, with the separator
    bytes between them, and writes the matrix with its NULs dropped.  The
    blocks hold at most BLOCK_ENTRIES values.
    """
    fields = []
    for spec, col in zip(row_format.split(","), columns):
        keys = col.view(f"i{col.itemsize}") if col.dtype.kind == "f" else col
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        text = np.array([spec % v for v in col[first].tolist()], dtype=bytes)
        fields.append((text.view(np.uint8).reshape(first.size, text.itemsize), inverse))
    # the separator byte after each field: a comma, then the CRLF of the row
    seps = np.cumsum([text.shape[1] + 1 for text, _ in fields]) - 1
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for block in index_blocks(len(columns[0]), len(columns)):
            mat = np.zeros((block.stop - block.start, seps[-1] + 2), np.uint8)
            for (text, inverse), sep in zip(fields, seps):
                mat[:, sep - text.shape[1]:sep] = text[inverse[block]]
            mat[:, seps[:-1]] = ord(",")
            mat[:, -2:] = (13, 10)
            fh.write(mat[mat != 0].tobytes())


def _write_curvature_csv(path: Path, curv, lat):
    columns = [*lat.plaquette_centers.T, chern_weil_density(curv, 1)]
    _write_csv(path, ["x", "y", "berry_curvature"], "%.12g,%.12g,%.12g", columns)


def _write_connection_csv(path: Path, u, lat) -> int:
    """Write the per-link connection; links on the branch cut are skipped.

    Returns the number of skipped links.
    """
    logs, cut = unitary_logs(u.u)
    keep = np.flatnonzero(~cut)
    m = u.rank
    a = logs / lat.link_spacing[keep, None, None]
    parts = np.stack([a.real, a.imag], axis=-1).reshape(keep.size, 2 * m * m)
    mids = lat.link_midpoints()[keep]
    ys = mids[:, 1] if lat.dim > 1 else np.zeros(keep.size)
    header = ["x", "y", "direction"] + [
        f"a{r}{c}_{part}" for r in range(m) for c in range(m) for part in ("re", "im")
    ]
    columns = [mids[:, 0], ys, lat.link_mu[keep], *parts.T]
    _write_csv(path, header, "%.12g,%.12g,%d" + ",%.12g" * (2 * m * m), columns)
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
    runp.add_argument("--strict", action="store_true", default=None,
                      help="warnings fail the run")
    runp.add_argument("--resolution-scale", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = RunConfig.from_file(
            args.config,
            out_dir=args.out,
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
