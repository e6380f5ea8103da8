import json
from collections import Counter

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
import realbloch.classify as classify
import realbloch.cli as cli
from realbloch._matrix import principal_log_unitaries
from realbloch.errors import DiscretizationError, ModelError, SymmetryViolationError


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
    config = {"lattice": lattice, "model": model, "bands": bands, "tasks": tasks}
    path = write_config(tmp_path, config)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    if case == "mobius":
        want = {"link_field_from_connection": 1, "plaquette_curvature": 1,
                "_j_consistency": 1}
    else:
        want = {"eigensolve_family": 1, "verify_hamiltonian_symmetry": 1,
                "verify_projection_symmetry": 1, "link_field": 1,
                "plaquette_curvature": 1}
    assert dict(calls) == want
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # chern and classify read one link field
    assert report["chern"]["chern_value"] == report["classify"]["diagnostics"]["chern_value"]


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


# -- error precedence ----------------------------------------------------------
# A Hamiltonian family that breaks the reflection symmetry on the circle:
# H(x) = diag(-1 - sin(x)/2, 1) with J = 1, so conj(H(x)) = H(x) != H(-x).
# The band-0 projector is constant, so the projection and sewing checks pass
# and only the Hamiltonian check sees the violation.  The gap-closed variant
# diag(sin x, 0) is degenerate at x = 0 and breaks the symmetry elsewhere.


def family_from(name, evaluator):
    return rb.HamiltonianFamily(2, evaluator, name), rb.SymmetryData.identity(2)


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


def test_library_link_errors_precede_sewing_errors():
    # symmetric under x -> -x, so only the connection layers can fail: the
    # singular overlap is reported although no sewing field passes tolerance -1
    h, j = family_from("band_swap", band_swap)
    with pytest.raises(DiscretizationError) as err:
        rb.classify_real_bundle(
            h, j, rb.build_circle(16, "reflection"), [0],
            tolerances={"sewing_unitarity": -1.0},
        )
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
