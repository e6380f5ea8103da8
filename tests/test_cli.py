import json

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
import realbloch.cli as cli
from realbloch._matrix import principal_log_unitaries


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


def test_report_byte_stability(tmp_path):
    config = {
        "lattice": {"topology": "sphere2", "n_theta": 8, "n_phi": 8},
        "model": {"name": "degree_k_sphere", "params": {"k": 1}},
        "bands": [0],
        "tasks": ["chern"],
    }
    path = write_config(tmp_path, config)
    cli.main(["run", str(path), "--out", str(tmp_path / "a")])
    cli.main(["run", str(path), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()
    # thread count does not change the numbers
    cli.main(["run", str(path), "--out", str(tmp_path / "c"), "--threads", "4"])
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "c" / "report.json"
    ).read_bytes()


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


def one_link_log(u, what):
    return principal_log_unitaries(u[None], what=what)[0]


@pytest.mark.parametrize("bands", [[0], [0, 1]])
def test_connection_csv_matches_per_link_writer(tmp_path, bands):
    lat = rb.build_torus2(16, 12, "eta1")  # unequal spacings per direction
    h, _ = rb.model_oscillator(rb.OscillatorParams(level=0, n_basis=24), lat)
    p = rb.select_projection(rb.eigensolve_family(h, lat), bands)
    u = rb.link_field(rb.smooth_frame_gauge(rb.frame_from_projection(p), lat), lat)
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
