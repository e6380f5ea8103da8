import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
import realbloch.classify as classify
import realbloch.cli as cli
from realbloch._matrix import principal_log_unitaries
from realbloch.errors import (
    ConfigError,
    DiscretizationError,
    ModelError,
    SymmetryInconsistencyError,
    SymmetryViolationError,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_sphere_chern_classify_run(tmp_path):
    config = {
        "lattice": {"topology": "sphere2", "n_theta": 12, "n_phi": 16},
        "model": {"name": "degree_k_sphere", "params": {"k": 2}},
        "bands": [0],
        "tasks": ["chern", "classify"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["chern"]["chern_number"] == 2
    assert report["classify"]["free"] == [2]
    assert (tmp_path / "out" / "curvature.csv").exists()
    header = (tmp_path / "out" / "curvature.csv").read_text().splitlines()[0]
    assert header == "x,y,berry_curvature"


def test_mobius_holonomy_classify_run(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 64, "kind": "trivial"},
        "model": {"name": "mobius_circle"},
        "tasks": ["holonomy", "classify"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classify"]["torsion"] == [-1]
    loops = report["holonomy"]["fixed_loops"]
    assert len(loops) == 1
    assert loops[0]["sign"] == -1
    assert abs(loops[0]["trace_re"] + 1.0) <= 1e-9


def test_empty_tasks_is_config_error(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
        "model": {"name": "mobius_circle"},
        "tasks": [],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG


def test_unknown_model_and_task(tmp_path):
    base = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
        "model": {"name": "nope"},
        "tasks": ["classify"],
    }
    path = write_config(tmp_path, base)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o1")]) == cli.EXIT_CONFIG
    bad_task = dict(base, model={"name": "mobius_circle"}, tasks=["fly"])
    path2 = write_config(tmp_path, bad_task, "c2.json")
    assert cli.main(["run", str(path2), "--out", str(tmp_path / "o2")]) == cli.EXIT_CONFIG


def test_gap_closure_exit_code(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 8, "kind": "trivial"},
        "model": {"name": "constant_diag", "params": {"entries": [0.0, 0.0]}},
        "bands": [0],
        "tasks": ["check-symmetry"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_GAP
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"]["kind"] == "gap-closure"
    assert "hint" in report["error"]["message"]


@pytest.mark.parametrize(
    "level, message",
    [
        (1, "level-1 eigenvalue off by 1.20e-06 at site 16; increase n_basis"),
        (3, "n_basis 22 too small for level 3; need at least 23"),
    ],
    ids=["level-eigenvalue", "basis-size"],
)
def test_truncation_exit_code_has_no_lattice_hint(tmp_path, level, message):
    # a truncated oscillator basis is a refinement failure, but of n_basis:
    # its message says so, with no hint to refine the lattice
    config = {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"},
        "model": {"name": "oscillator", "params": {"level": level, "n_basis": 22}},
        "bands": [level],
        "tasks": ["classify"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_REFINE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] == {"kind": "refinement", "message": message}


def test_symmetry_violation_exit_code(tmp_path):
    # mobius pullback J on the wrong torus involution breaks equivariance
    config = {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"},
        "model": {"name": "mobius_pullback_torus"},
        "tasks": ["classify"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SYMMETRY


PAIRING_LATTICES = {
    "circle-trivial": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
    "circle-reflection": {"topology": "circle", "n_sites": 16, "kind": "reflection"},
    "circle-antipodal": {"topology": "circle", "n_sites": 16, "kind": "antipodal"},
    "torus2-trivial": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "trivial"},
    "torus2-eta": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta"},
    "torus2-eta1": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"},
    "torus2-xi": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "xi"},
    "sphere2-reflect": {"topology": "sphere2", "n_theta": 6, "n_phi": 8},
}
PAIRING_MODELS = ("mobius_circle", "mobius_pullback_torus", "trivial_line",
                  "flat_line", "degree_k_sphere", "oscillator", "constant_diag")
# exit code per model, in PAIRING_MODELS order; a model whose coordinate
# dimension is not the lattice's is a config error (2)
PAIRING_EXITS = {
    "circle-trivial": (0, 2, 0, 5, 2, 2, 0),
    "circle-reflection": (4, 2, 0, 0, 2, 2, 0),
    "circle-antipodal": (4, 2, 0, 0, 2, 2, 0),
    "torus2-trivial": (2, 0, 0, 2, 4, 2, 0),
    "torus2-eta": (2, 0, 0, 2, 0, 2, 0),
    "torus2-eta1": (2, 5, 0, 2, 4, 0, 0),
    "torus2-xi": (2, 0, 0, 2, 4, 2, 0),
    "sphere2-reflect": (2, 0, 0, 2, 0, 2, 0),
}


@pytest.mark.parametrize("base", sorted(PAIRING_LATTICES))
def test_every_model_on_every_lattice_reports(tmp_path, base):
    lat_spec = PAIRING_LATTICES[base]
    lat_dim = 1 if lat_spec["topology"] == "circle" else 2
    kinds = {code: kind for _, kind, code, _ in cli.FAILURES}
    for model, want in zip(PAIRING_MODELS, PAIRING_EXITS[base]):
        config = {
            "lattice": lat_spec,
            "model": {"name": model},
            "tasks": ["check-symmetry", "berry", "holonomy", "classify"],
        }
        out = tmp_path / model
        path = write_config(tmp_path, config, f"{model}.json")
        assert cli.main(["run", str(path), "--out", str(out)]) == want, model
        report = json.loads((out / "report.json").read_text())
        assert report.get("error", {}).get("kind") == kinds.get(want), model
        if cli.MODEL_DIMS.get(model, lat_dim) != lat_dim:
            message = report["error"]["message"]
            assert f"{cli.MODEL_DIMS[model]}-dimensional" in message, model
            assert f"lattice {base} has {lat_dim}" in message, model


def test_moduli_task(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "reflection"},
        "model": {"name": "flat_line", "params": {"a": 0.25}},
        "tasks": ["moduli"],
        "moduli_values": [0.0, 0.25, 0.5],
    }
    path = write_config(tmp_path, config)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    vals = {round(entry["a"], 3): entry for entry in report["moduli"]}
    assert vals[0.0]["holonomy_re"] == pytest.approx(1.0)
    assert vals[0.5]["holonomy_re"] == pytest.approx(-1.0)
    assert vals[0.25]["holonomy_im"] == pytest.approx(-1.0)


def test_oscillator_oracle_task(tmp_path):
    config = {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"},
        "model": {"name": "oscillator", "params": {"n_basis": 30}},
        "bands": [0],
        "tasks": ["check-symmetry", "berry", "oscillator-oracle"],
    }
    path = write_config(tmp_path, config)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["check_symmetry"]["hamiltonian_residual"] <= 1e-10
    assert report["oscillator_oracle"]["connection_max_deviation"] < 0.05
    assert (tmp_path / "out" / "connection.csv").exists()


def test_oscillator_reference_frame_is_real(tmp_path, monkeypatch):
    # the section is Real, so the reference-aligned frame is mirrored at
    # every site off the fixed loops, and the mirror moves no reported
    # number beyond roundoff
    bundles = []

    class Recorded(rb.RealBundle):
        def __init__(self, *args):
            super().__init__(*args)
            bundles.append(self)

    monkeypatch.setattr(cli, "RealBundle", Recorded)
    config = {
        "lattice": {"topology": "torus2", "n1": 12, "n2": 16, "kind": "eta1"},
        "model": {"name": "oscillator", "params": {"level": 1, "n_basis": 24}},
        "bands": [1],
        "tasks": list(cli.KNOWN_TASKS),
    }
    path = write_config(tmp_path, config)

    def run(out):
        assert cli.main(["run", str(path), "--out", str(tmp_path / out)]) == cli.EXIT_OK
        return json.loads((tmp_path / out / "report.json").read_text())

    got = run("mirrored")
    lat, mirrored = bundles[0].lat, bundles[0].mirrored
    assert mirrored[lat.involution != np.arange(lat.n_sites)].all()
    monkeypatch.setattr(rb.RealBundle, "mirrored", None)
    want = run("full")
    assert bundles[1].mirrored is None
    for key in ("verdict", "free", "torsion"):
        assert got["classify"][key] == want["classify"][key]
    for a, b in zip(got["holonomy"]["fixed_loops"], want["holonomy"]["fixed_loops"]):
        assert a["sign"] == b["sign"] and abs(a["trace_re"] - b["trace_re"]) <= 1e-12
    for key in ("connection_max_deviation", "curvature_max_deviation"):
        assert abs(got["oscillator_oracle"][key] - want["oscillator_oracle"][key]) <= 1e-12
    assert abs(got["chern"]["chern_value"] - want["chern"]["chern_value"]) <= 1e-12


def report_leaves(node, path=""):
    """(path, value) of every leaf of a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from report_leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from report_leaves(value, f"{path}[{k}]")
    else:
        yield path, node


def test_sphere_tree_frame_is_real(tmp_path, monkeypatch):
    # the lattice's tree is tau-symmetric, so the tree-smoothed frame of the
    # benchmark sphere keeps its mirror; the sequential walk down the same
    # tree moves no gauge-invariant number beyond roundoff
    bundles = []

    class Recorded(rb.RealBundle):
        def __init__(self, *args):
            super().__init__(*args)
            bundles.append(self)

    monkeypatch.setattr(cli, "RealBundle", Recorded)
    config = {
        "lattice": {"topology": "sphere2", "n_theta": 96, "n_phi": 128},
        "model": {"name": "degree_k_sphere", "params": {"k": 2}},
        "bands": [0],
        "tasks": ["check-symmetry", "berry", "chern", "holonomy", "classify"],
    }
    path = write_config(tmp_path, config)

    def run(out):
        assert cli.main(["run", str(path), "--out", str(tmp_path / out)]) == cli.EXIT_OK
        return dict(report_leaves(json.loads((tmp_path / out / "report.json").read_text())))

    got = run("doubling")
    assert bundles[0].frame.gauge_tag == "tree-smoothed"
    assert bundles[0].mirrored.sum() >= 12067 and bundles[0].lat.n_sites == 12162
    monkeypatch.setattr(cli, "smooth_frame_gauge", ref.smooth_frame_gauge)
    want = run("sequential")
    assert got.keys() == want.keys()
    for key, value in got.items():
        if isinstance(value, float):
            assert abs(value - want[key]) <= 1e-12, key
        else:
            assert value == want[key], key


STABILITY_CONFIGS = {
    "sphere": {
        "lattice": {"topology": "sphere2", "n_theta": 8, "n_phi": 8},
        "model": {"name": "degree_k_sphere", "params": {"k": 1}},
        "bands": [0],
        "tasks": ["berry", "chern"],
    },
    # the reference-aligned gauge, the sector solve and the mirror
    "oscillator": {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"},
        "model": {"name": "oscillator", "params": {"n_basis": 20}},
        "bands": [0],
        "tasks": list(cli.KNOWN_TASKS),
    },
    "mobius-eta": {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta"},
        "model": {"name": "mobius_pullback_torus"},
        "tasks": ["berry", "chern", "holonomy", "classify"],
    },
}


def test_report_byte_stability(tmp_path):
    for case, config in STABILITY_CONFIGS.items():
        path = write_config(tmp_path, config, f"{case}.json")
        runs = [tmp_path / case / out for out in ("a", "b")]
        for out in runs:
            assert cli.main(["run", str(path), "--out", str(out)]) == 0, case
        for name in ("report.json", "connection.csv", "curvature.csv"):
            first = (runs[0] / name).read_bytes()
            assert first == (runs[1] / name).read_bytes(), (case, name)


def test_strict_turns_warnings_into_a_config_exit(tmp_path):
    # the eta torus is a mixed free+torsion base, which classify warns about
    config = {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta"},
        "model": {"name": "mobius_pullback_torus"},
        "tasks": ["classify"],
    }
    path = write_config(tmp_path, config)
    for flags, code in (([], cli.EXIT_OK), (["--strict"], cli.EXIT_CONFIG)):
        out = tmp_path / ("out" + "".join(flags))
        assert cli.main(["run", str(path), "--out", str(out)] + flags) == code
        report = json.loads((out / "report.json").read_text())
        assert "error" not in report
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].startswith("mixed free+torsion base")


def test_chern_on_a_circle_is_a_config_error(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
        "model": {"name": "trivial_line"},
        "tasks": ["chern"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    error = json.loads((tmp_path / "out" / "report.json").read_text())["error"]
    assert error == {"kind": "config",
                     "message": "Chern numbers need a 2-dimensional lattice"}


def test_threads_flag_is_gone(tmp_path):
    path = write_config(tmp_path, {"lattice": {}, "model": {}, "tasks": ["chern"]})
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(path), "--out", str(tmp_path / "o"), "--threads", "1"])
    assert exc.value.code == 2


def test_resolution_scale_flag(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
        "model": {"name": "mobius_circle"},
        "tasks": ["classify"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(
        ["run", str(path), "--out", str(tmp_path / "out"), "--resolution-scale", "2"]
    )
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["lattice"]["n_sites"] == 32
    assert report["classify"]["torsion"] == [-1]


def test_resolution_scale_below_one_is_config_error(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
        "model": {"name": "mobius_circle"},
        "tasks": ["classify"],
    }
    with pytest.raises(ConfigError, match="resolution_scale 0 is below 1"):
        cli.RunConfig.from_dict(dict(config, resolution_scale=0))
    path = write_config(tmp_path, config)
    for scale in ("0", "-1"):
        args = ["run", str(path), "--out", str(tmp_path / "o")]
        code = cli.main(args + ["--resolution-scale", scale])
        assert code == cli.EXIT_CONFIG


def test_overrides_set_known_fields_and_reject_unknown_names():
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "trivial"},
        "model": {"name": "mobius_circle"},
        "tasks": ["classify"],
        "resolution_scale": 2,
    }
    cfg = cli.RunConfig.from_dict(config, strict=True, resolution_scale=None)
    assert cfg.strict is True and cfg.resolution_scale == 2  # None keeps the file
    with pytest.raises(TypeError, match="strcit"):
        cli.RunConfig.from_dict(config, strcit=True)


@pytest.mark.parametrize(
    "bands, message",
    [
        ([5], "band indices [5] outside 0..1"),
        ([-1], "band indices [-1] outside 0..1"),
        ([0.5], "band indices [0.5] are not integers"),
        (["a"], "band indices ['a'] are not integers"),
    ],
)
def test_bad_bands_are_config_errors(tmp_path, bands, message):
    config = {
        "lattice": {"topology": "sphere2", "n_theta": 6, "n_phi": 8},
        "model": {"name": "degree_k_sphere", "params": {"k": 2}},
        "bands": bands,
        "tasks": ["check-symmetry", "classify"],
    }
    path = write_config(tmp_path, config)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] == {"kind": "config", "message": message}


SPHERE_CONFIG = {
    "lattice": {"topology": "sphere2", "n_theta": 6, "n_phi": 8},
    "model": {"name": "degree_k_sphere", "params": {"k": 2}},
    "tasks": ["classify"],
}


@pytest.mark.parametrize(
    "override, message",
    [
        ({"resolution_scale": "x"}, "bad resolution_scale 'x': invalid literal"),
        ({"bands": None}, "bad bands None: 'NoneType' object is not iterable"),
        ({"tolerances": [1]}, "bad tolerances [1]: cannot convert"),
        ({"moduli_values": 3}, "bad moduli_values 3: 'int' object is not iterable"),
        (
            {"model": {"name": "degree_k_sphere", "params": {"k": "a"}}},
            "bad k 'a': invalid literal",
        ),
        ({"tasks": "classify"}, "tasks must be a nonempty list, got 'classify'"),
        # a string is not read character by character
        ({"moduli_values": "05"}, "bad moduli_values '05': expected a list of"),
        ({"moduli_values": [0.5, "1"]}, "bad moduli_values [0.5, '1']: expected"),
        ({"moduli_values": [float("nan")]}, "bad moduli_values [nan]: expected"),
        ({"moduli_values": [True]}, "bad moduli_values [True]: expected"),
        # a NaN or infinite model parameter is named, not met far downstream
        (
            {"model": {"name": "flat_line", "params": {"a": float("nan")}}},
            "bad a nan: not finite",
        ),
        (
            {"model": {"name": "oscillator", "params": {"delta": float("nan")}}},
            "bad delta nan: not finite",
        ),
        (
            {"model": {"name": "oscillator", "params": {"delta": float("-inf")}}},
            "bad delta -inf: not finite",
        ),
        (
            {"model": {"name": "constant_diag", "params": {"entries": [1, "inf"]}}},
            "bad entries [1, 'inf']: not finite",
        ),
    ],
)
def test_malformed_config_values_are_config_errors(tmp_path, capsys, override, message):
    path = write_config(tmp_path, dict(SPHERE_CONFIG, **override))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    # values read before the run go to stderr, the others into the report
    if (out / "report.json").exists():
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["kind"] == "config"
        shown = error["message"]
    else:
        shown = capsys.readouterr().err
    assert message in shown


def test_unknown_involution_kind_is_config_error(tmp_path):
    config = {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "bogus"},
        "model": {"name": "mobius_pullback_torus"},
        "tasks": ["classify"],
    }
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    report = json.loads((out / "report.json").read_text())
    assert report["error"] == {
        "kind": "config", "message": "unknown torus involution 'bogus'"
    }


ETA1_TORUS = {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"}


@pytest.mark.parametrize(
    "lattice, model, message",
    [
        (SPHERE_CONFIG["lattice"], {"name": "degree_k_sphere", "params": {"k": 0}},
         "degree must be nonzero"),
        (ETA1_TORUS, {"name": "oscillator", "params": {"delta": 0}},
         "delta must be positive"),
        (ETA1_TORUS, {"name": "oscillator", "params": {"level": -1}},
         "level must be nonnegative"),
        (dict(ETA1_TORUS, kind="eta"), {"name": "oscillator"},
         "oscillator model lives on a torus with the theta1 reflection"),
    ],
)
def test_invalid_model_parameters_are_config_errors(tmp_path, lattice, model, message):
    config = dict(SPHERE_CONFIG, lattice=lattice, model=model)
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["kind"] == "config"
    assert error["message"].startswith(message)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
def test_tolerance_must_be_positive_and_finite(tmp_path, value):
    # JSON reads NaN and Infinity, and a NaN tolerance would pass every check
    h, j = rb.model_degree_k_sphere(2)
    lat = rb.build_sphere2(12, 16)
    tolerances = {"projection_symmetry": value, "sewing_unitarity": value}
    with pytest.raises(ValueError) as err:
        rb.RealBundle(h, j, lat, [0], tolerances)
    assert str(err.value) == (
        f"tolerance projection_symmetry = {value} must lie in (0, inf)"
    )
    with pytest.raises(ValueError, match="^tolerance hamiltonian_symmetry = "):
        rb.classify_real_bundle(h, j, lat, [0], {"hamiltonian_symmetry": value})
    config = dict(
        SPHERE_CONFIG,
        lattice={"topology": "sphere2", "n_theta": 12, "n_phi": 16},
        tolerances=tolerances,
    )
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    error = json.loads((out / "report.json").read_text())["error"]
    assert error == {"kind": "config", "message": str(err.value)}
    assert "classify" not in json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("lattice, model", [
    ({"topology": "sphere2", "n_theta": 8, "n_phi": 12},
     {"name": "degree_k_sphere", "params": {"k": 2}}),
    ({"topology": "torus2", "n1": 12, "n2": 12, "kind": "eta1"},
     {"name": "oscillator"}),
])
def test_projection_symmetry_guard_raises(tmp_path, lattice, model):
    # the projection residual is roundoff (about 1e-15 on both), so a
    # tolerance below it trips the guard after the Hamiltonian check passes
    tolerances = {"projection_symmetry": 1e-20}
    lat = cli._build_lattice(lattice, 1)
    h, j = cli._build_model(model, lat)
    with pytest.raises(SymmetryViolationError, match="^projection symmetry residual"):
        rb.classify_real_bundle(h, j, lat, [0], tolerances)
    config = {"lattice": lattice, "model": model, "bands": [0],
              "tasks": ["classify"], "tolerances": tolerances}
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == cli.EXIT_SYMMETRY
    error = json.loads((out / "report.json").read_text())["error"]
    assert error["kind"] == "symmetry"
    assert error["message"].startswith("projection symmetry residual")


def test_unknown_tolerance_key_is_rejected(tmp_path):
    h, j = rb.model_degree_k_sphere(1)
    lat = rb.build_sphere2(6, 8)
    with pytest.raises(ValueError) as err:
        rb.RealBundle(h, j, lat, [0], {"hamiltonian_symetry": 1e-3})
    assert str(err.value) == (
        "unknown tolerance keys ['hamiltonian_symetry']; known: "
        "['hamiltonian_symmetry', 'projection_symmetry', 'sewing_unitarity']"
    )
    config = dict(SPHERE_CONFIG, tolerances={"hamiltonian_symetry": 1e-3})
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    error = json.loads((out / "report.json").read_text())["error"]
    assert error == {"kind": "config", "message": str(err.value)}


@pytest.mark.parametrize(
    "override, message",
    [
        ({"lattice": dict(SPHERE_CONFIG["lattice"], n_theta=6.9)}, "bad n_theta 6.9"),
        ({"model": {"name": "degree_k_sphere", "params": {"k": 2.7}}}, "bad k 2.7"),
        ({"resolution_scale": 1.9}, "bad resolution_scale 1.9"),
        ({"lattice": dict(ETA1_TORUS, n2=8.5), "model": {"name": "oscillator"}},
         "bad n2 8.5"),
        ({"lattice": ETA1_TORUS,
          "model": {"name": "oscillator", "params": {"level": 0.5}}},
         "bad level 0.5"),
        ({"lattice": ETA1_TORUS,
          "model": {"name": "oscillator", "params": {"n_basis": 30.5}}},
         "bad n_basis 30.5"),
    ],
)
def test_non_integer_sizes_are_config_errors(tmp_path, capsys, override, message):
    path = write_config(tmp_path, dict(SPHERE_CONFIG, **override))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    if (out / "report.json").exists():
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["kind"] == "config"
        shown = error["message"]
    else:  # resolution_scale is read before the run
        shown = capsys.readouterr().err
    assert f"{message}: not an integer" in shown


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    src = str(Path(rb.__file__).resolve().parents[1])
    code = "import sys, realbloch.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_too_coarse_lattice_is_refinement_error(tmp_path):
    config = {
        "lattice": {"topology": "circle", "n_sites": 3, "kind": "trivial"},
        "model": {"name": "mobius_circle"},
        "tasks": ["classify"],
    }
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == cli.EXIT_REFINE
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["kind"] == "refinement"


def test_rank_two_oscillator_run(tmp_path):
    # two bands: the rank-1 level section cannot align the frames, so the
    # run uses the tree-smoothed gauge
    config = {
        "lattice": {"topology": "torus2", "n1": 12, "n2": 12, "kind": "eta1"},
        "model": {"name": "oscillator", "params": {"n_basis": 24}},
        "bands": [0, 1],
        "tasks": ["check-symmetry", "berry", "chern", "holonomy", "classify"],
    }
    path = write_config(tmp_path, config)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classify"]["verdict"] == "free 0, torsion (+1, +1)"
    # the oracle compares against the level band only
    config["tasks"] = ["oscillator-oracle"]
    path = write_config(tmp_path, config, "oracle.json")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o2")]) == cli.EXIT_CONFIG


# -- one pipeline per run -------------------------------------------------------

FIVE_TASKS = ["check-symmetry", "berry", "chern", "holonomy", "classify"]
COUNTED_LAYERS = (
    "eigensolve_family",
    "verify_hamiltonian_symmetry",
    "verify_projection_symmetry",
    "link_field",
    "link_field_from_connection",
    "plaquette_curvature",
    "_j_consistency",
)
PIPELINE_RUNS = {
    "sphere": (
        {"topology": "sphere2", "n_theta": 12, "n_phi": 16},
        {"name": "degree_k_sphere", "params": {"k": 2}},
        [0],
        FIVE_TASKS,
    ),
    "oscillator": (
        {"topology": "torus2", "n1": 12, "n2": 12, "kind": "eta1"},
        {"name": "oscillator", "params": {"level": 1, "n_basis": 24}},
        [1],
        FIVE_TASKS + ["oscillator-oracle"],
    ),
    "mobius": (
        {"topology": "torus2", "n1": 16, "n2": 16, "kind": "eta"},
        {"name": "mobius_pullback_torus"},
        [0],
        FIVE_TASKS,
    ),
}


def count_layer_calls(monkeypatch):
    """Count calls of the layer functions wherever the CLI or the classify
    module can reach them."""
    calls = Counter()
    for module in (cli, classify):
        for name in COUNTED_LAYERS:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("case", sorted(PIPELINE_RUNS))
def test_full_run_computes_each_layer_once(tmp_path, monkeypatch, case):
    lattice, model, bands, tasks = PIPELINE_RUNS[case]
    calls = count_layer_calls(monkeypatch)
    # rows of every Hamiltonian block sampled: a stack, or an affine
    # family's coefficients (calling a family samples it too), and the
    # calls that formed a stack
    sampled, stacks = [], []
    sample, evaluate = rb.HamiltonianFamily.sample, rb.HamiltonianFamily.__call__

    def counted(h, coords):
        sampled.append(len(np.atleast_2d(coords)))
        return sample(h, coords)

    def stacked(h, coords):
        stacks.append(len(np.atleast_2d(coords)))
        return evaluate(h, coords)

    monkeypatch.setattr(rb.HamiltonianFamily, "sample", counted)
    monkeypatch.setattr(rb.HamiltonianFamily, "__call__", stacked)
    build = cli._build_model

    def built(*args):  # the oscillator's truncation check samples two sites
        out = build(*args)
        sampled.clear()
        stacks.clear()
        return out

    monkeypatch.setattr(cli, "_build_model", built)
    config = {"lattice": lattice, "model": model, "bands": bands, "tasks": tasks}
    path = write_config(tmp_path, config)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    if case == "mobius":
        want = {"link_field_from_connection": 1, "plaquette_curvature": 1,
                "_j_consistency": 1}
        assert sampled == []
    else:
        # the eigensolve's pass also yields the Hamiltonian residual: H is
        # sampled once per site, and verify_hamiltonian_symmetry never runs
        want = {"eigensolve_family": 1, "verify_projection_symmetry": 1,
                "link_field": 1, "plaquette_curvature": 1}
        assert sum(sampled) == report["lattice"]["n_sites"]
    if case == "oscillator":  # J = 1: the eigensolve reads the terms' entries
        assert stacks == []
    assert dict(calls) == want
    # chern and classify read one link field
    assert report["chern"]["chern_value"] == report["classify"]["diagnostics"]["chern_value"]


def one_link_log(u, what):
    return principal_log_unitaries(u[None], what=what)[0]


def oscillator_links(bands):
    """The oscillator's smoothed link field over an eta1 torus whose two
    directions have unequal spacings."""
    lat = rb.build_torus2(16, 12, "eta1")
    h, _ = rb.model_oscillator(rb.OscillatorParams(level=0, n_basis=24), lat)
    p = rb.select_projection(rb.eigensolve_family(h, lat), bands)
    frame = rb.smooth_frame_gauge(rb.frame_from_projection(p), lat)
    return rb.link_field(frame, lat), lat


@pytest.mark.parametrize("bands", [[0], [0, 1]])
def test_connection_csv_matches_per_link_writer(tmp_path, bands):
    u, lat = oscillator_links(bands)
    u.u[37] = -np.eye(len(bands))  # on the branch cut: must be skipped
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert cli._write_connection_csv(got, u, lat) == 1
    # logm and the eigendecomposition differ at roundoff, and entries of
    # size 1e-17 print differently at 12 digits: rank 2 compares bytes with
    # a per-link call of the same logarithm and values with logm
    log = ref.principal_log_unitary if len(bands) == 1 else one_link_log
    assert ref.write_connection_csv(want, u, lat, log=log) == 1
    assert got.read_bytes() == want.read_bytes()
    assert ref.write_connection_csv(want, u, lat) == 1
    values = np.loadtxt(got, delimiter=",", skiprows=1)
    assert len(values) == lat.n_links - 1
    assert np.max(np.abs(values - np.loadtxt(want, delimiter=",", skiprows=1))) <= 1e-12


@pytest.mark.parametrize("bands", [[0], [0, 1]])
def test_curvature_csv_matches_per_plaquette_writer(tmp_path, bands):
    u, lat = oscillator_links(bands)
    curv = rb.plaquette_curvature(u, lat)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_curvature_csv(got, curv, lat)
    ref.write_curvature_csv(want, curv, lat)
    assert got.read_bytes() == want.read_bytes()


# floats that print alike at 12 digits but differ in their bits, the signed
# zeros, NaNs of either sign and with a payload, infinities, subnormals and
# the extremes
ODD_FLOATS = np.array([
    0.0, -0.0, np.nan, -np.nan, np.int64(0x7FF8000000000001).view(float),
    np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308, 1e300, -1e300,
    1.0, np.nextafter(1.0, 2.0), 0.1, np.nextafter(0.1, 1.0),
    1.0 / 3.0, np.nextafter(1.0 / 3.0, 0.0), -123456.789012345, 2.5e-7,
])
ODD_INTS = np.array([0, 1, -1, 2, 7, -42, 2**62, -(2**63)])


@pytest.mark.parametrize("n_rows", [0, 1, "past a block"])
def test_write_csv_matches_per_row_writer(tmp_path, n_rows):
    if n_rows == "past a block":  # a row block holds BLOCK_ENTRIES values
        n_rows = 2 * (rb.spectral.BLOCK_ENTRIES // 4) + 1
    rng = np.random.default_rng(5)
    grid = rng.permutation(np.resize(ODD_FLOATS, (n_rows, 2)))  # strided columns
    columns = [grid[:, 0], rng.permutation(np.resize(ODD_INTS, n_rows)), grid[:, 1],
               rng.permutation(np.resize(ODD_FLOATS[::-1], n_rows))]
    header = ["x", "k", "y", "value"]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_csv(got, header, "%.12g,%d,%.12g,%.12g", columns)
    ref.write_csv(want, header, "%.12g,%d,%.12g,%.12g", columns)
    assert got.read_bytes() == want.read_bytes()
    cli._write_csv(got, header[:1], "%.12g", columns[:1])
    ref.write_csv(want, header[:1], "%.12g", columns[:1])
    assert got.read_bytes() == want.read_bytes()


# -- error precedence ----------------------------------------------------------
# A Hamiltonian family that breaks the reflection symmetry on the circle:
# H(x) = diag(-1 - sin(x)/2, 1) with J = 1, so conj(H(x)) = H(x) != H(-x).
# The band-0 projector is constant, so the projection and sewing checks pass
# and only the Hamiltonian check sees the violation.  The gap-closed variant
# diag(sin x, 0) is degenerate at x = 0 and breaks the symmetry elsewhere.


def family_from(name, evaluator):
    family = rb.HamiltonianFamily(2, rb.pointwise(evaluator), name)
    return family, rb.SymmetryData.identity(2)


def asymmetric_family(gap_closed=False):
    def evaluator(c):
        s = np.sin(c[0])
        entries = [s, 0.0] if gap_closed else [-1.0 - 0.5 * s, 1.0]
        return np.diag(entries).astype(complex)

    return family_from("asymmetric_gap_closed" if gap_closed else "asymmetric", evaluator)


def run_asymmetric(tmp_path, monkeypatch, tasks, gap_closed=False):
    family = asymmetric_family(gap_closed)
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "reflection"},
        "model": {"name": "asymmetric"},
        "bands": [0],
        "tasks": tasks,
    }
    out = tmp_path / ("closed" if gap_closed else "open") / "-".join(tasks)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_model", lambda spec, lat: family)
        code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def run_mobius_on_eta1(tmp_path, tasks):
    config = {
        "lattice": {"topology": "torus2", "n1": 8, "n2": 8, "kind": "eta1"},
        "model": {"name": "mobius_pullback_torus"},
        "tasks": tasks,
    }
    out = tmp_path / "mobius" / "-".join(tasks)
    code = cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_check_symmetry_reports_violation_without_raising(tmp_path, monkeypatch):
    code, report = run_asymmetric(tmp_path, monkeypatch, ["check-symmetry"])
    assert code == cli.EXIT_OK
    assert "error" not in report
    assert report["check_symmetry"]["hamiltonian_residual"] == pytest.approx(1.0)
    assert report["check_symmetry"]["unitary_residual"] == 0.0
    code, report = run_mobius_on_eta1(tmp_path, ["check-symmetry"])
    assert code == cli.EXIT_OK
    assert report["check_symmetry"]["unitary_residual"] == pytest.approx(2.0)


def test_classify_raises_on_violation(tmp_path, monkeypatch):
    code, report = run_asymmetric(tmp_path, monkeypatch, ["classify"])
    assert code == cli.EXIT_SYMMETRY
    assert report["error"]["kind"] == "symmetry"
    code, report = run_mobius_on_eta1(tmp_path, ["classify"])
    assert code == cli.EXIT_SYMMETRY


def test_berry_alone_never_checks_the_hamiltonian(tmp_path, monkeypatch):
    code, report = run_asymmetric(tmp_path, monkeypatch, ["berry"])
    assert code == cli.EXIT_OK
    assert "error" not in report
    code, report = run_mobius_on_eta1(tmp_path, ["berry"])
    assert code == cli.EXIT_OK


def test_symmetry_is_checked_before_the_gap(tmp_path, monkeypatch):
    code, report = run_asymmetric(tmp_path, monkeypatch, ["classify"], gap_closed=True)
    assert code == cli.EXIT_SYMMETRY
    assert report["error"]["kind"] == "symmetry"
    # the gap closure itself is what check-symmetry stops at
    code, report = run_asymmetric(
        tmp_path, monkeypatch, ["check-symmetry"], gap_closed=True
    )
    assert code == cli.EXIT_GAP


@pytest.mark.parametrize(
    "gap_closed, message",
    [
        (False, "Hamiltonian symmetry residual 1.000e+00 / unitary residual "
                "0.000e+00 above 1e-10"),
        (True, "Hamiltonian symmetry residual 2.000e+00 / unitary residual "
               "0.000e+00 above 1e-10"),
    ],
)
def test_library_violation_messages(gap_closed, message):
    h, j = asymmetric_family(gap_closed)
    with pytest.raises(SymmetryViolationError) as err:
        rb.classify_real_bundle(h, j, rb.build_circle(16, "reflection"), [0])
    assert str(err.value) == message


def test_library_product_violation_message():
    lat = rb.build_torus2(8, 8, "eta1")
    with pytest.raises(SymmetryViolationError) as err:
        rb.classify_real_bundle(rb.model_mobius_pullback_torus(), None, lat)
    assert str(err.value) == "J equivariance residual 2.000e+00 on torus2-eta1"


def test_library_eigensolve_precedes_symmetry_check():
    # non-Hermitian and asymmetric: the eigensolve's ModelError comes first
    h, j = family_from(
        "lopsided", lambda c: np.array([[np.sin(c[0]), 1.0], [0.0, 0.0]], complex)
    )
    with pytest.raises(ModelError) as err:
        rb.classify_real_bundle(h, j, rb.build_circle(16, "reflection"), [0])
    assert str(err.value) == "lopsided: non-Hermitian output at site 0"


def band_swap(c):
    """The band-0 eigenvector jumps from e0 to e1 where |x| > pi/2."""
    x = (c[0] + np.pi) % (2 * np.pi) - np.pi
    return np.diag([-1.0, 1.0] if abs(x) < np.pi / 2 else [1.0, -1.0]).astype(complex)


def test_library_link_errors_precede_sewing_errors(monkeypatch):
    # symmetric under x -> -x, so only the connection layers can fail: the
    # singular overlap is reported although every sewing field is rejected
    def reject(*args):
        raise SymmetryInconsistencyError("sewing matrix rejected")

    monkeypatch.setattr(classify, "sewing_matrix", reject)
    h, j = family_from("band_swap", band_swap)
    with pytest.raises(DiscretizationError) as err:
        rb.classify_real_bundle(h, j, rb.build_circle(16, "reflection"), [0])
    assert str(err.value) == (
        "singular frame overlap on link 3 (3->4), smallest singular value 0.000e+00"
    )


def test_berry_link_errors_precede_sewing_errors(tmp_path, monkeypatch):
    # shifted by a quarter turn the family breaks the symmetry: the sewing
    # matrix vanishes at some sites, but the singular overlap comes first
    family = family_from("shifted", lambda c: band_swap(c + np.pi / 4))
    config = {
        "lattice": {"topology": "circle", "n_sites": 16, "kind": "reflection"},
        "model": {"name": "shifted"},
        "bands": [0],
        "tasks": ["berry"],
    }
    monkeypatch.setattr(cli, "_build_model", lambda spec, lat: family)
    out = tmp_path / "out"
    assert cli.main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) \
        == cli.EXIT_REFINE
    report = json.loads((out / "report.json").read_text())
    assert report["error"]["message"].startswith("singular frame overlap on link")
