import numpy as np
import pytest

import realbloch as rb
from conftest import constant_diag, mobius_two_band
from realbloch.errors import (
    GapClosureError,
    SymmetryViolationError,
    UnsupportedBaseError,
    UnsupportedParityError,
)


def test_mobius_spec_classification():
    lat = rb.build_circle(32, "trivial")
    res = rb.classify_real_bundle(rb.model_mobius_circle(), lat=lat)
    assert res.group == "Z2"
    assert res.torsion == [-1]
    assert res.free == []
    assert res.verdict == "Mobius class"


def test_mobius_hamiltonian_classification():
    lat = rb.build_circle(32, "trivial")
    h, j = mobius_two_band()
    res = rb.classify_real_bundle(h, j, lat, {0})
    assert (res.group, res.torsion, res.verdict) == ("Z2", [-1], "Mobius class")


def test_hamiltonian_classification_needs_bands():
    # without bands a Hamiltonian family fails before any sampling; a
    # product spec has no bands and ignores them
    lat = rb.build_sphere2(8, 12)
    h, j = rb.model_degree_k_sphere(1)
    calls = []
    counted = rb.HamiltonianFamily(2, lambda c: calls.append(c) or h.evaluator(c))
    for run in (
        lambda: rb.classify_real_bundle(counted, j, lat),
        lambda: rb.RealBundle(counted, j, lat),
    ):
        with pytest.raises(ValueError, match="needs `bands`"):
            run()
    assert calls == []
    circle = rb.build_circle(16, "trivial")
    for bands in (None, [0], [7]):
        res = rb.classify_real_bundle(rb.model_mobius_circle(), lat=circle, bands=bands)
        assert res.verdict == "Mobius class"


def test_trivial_line_classification():
    lat = rb.build_circle(32, "trivial")
    res = rb.classify_real_bundle(rb.model_trivial_line("circle-trivial", 1), lat=lat)
    assert res.torsion == [1]
    assert res.verdict == "trivial"


def test_reflection_and_antipodal_circles_trivial():
    for kind in ("reflection", "antipodal"):
        lat = rb.build_circle(16, kind)
        res = rb.classify_real_bundle(
            rb.model_trivial_line(f"circle-{kind}", 1), lat=lat
        )
        assert res.group == "0"
        assert res.verdict == "trivial"
        assert res.free == [] and res.torsion == []


def test_flat_line_on_reflection_circle_still_trivial_class():
    # nonzero flat connection parameter: still the trivial bundle class
    lat = rb.build_circle(16, "reflection")
    res = rb.classify_real_bundle(rb.model_flat_line(0.3), lat=lat)
    assert res.group == "0" and res.verdict == "trivial"


def test_sphere_classification():
    lat = rb.build_sphere2(12, 16)
    h, j = rb.model_degree_k_sphere(2)
    res = rb.classify_real_bundle(h, j, lat, {0})
    assert res.group == "Z"
    assert res.free == [2]
    assert res.torsion == []
    assert res.verdict == "Chern 2"
    assert res.diagnostics["quantization_residual"] <= 1e-9


NON_CANONICAL = (
    "mixed free+torsion base: the splitting into the integer and the sign "
    "pair is not canonical; both are reported"
)


def test_eta_pullback_classification_and_report():
    lat = rb.build_torus2(16, 16, "eta")
    res = rb.classify_real_bundle(rb.model_mobius_pullback_torus(), lat=lat)
    assert res.group == "Z2 + Z"
    assert res.free == [0]
    assert res.torsion == [-1, -1]
    assert res.verdict == "free 0, torsion (-1, -1)"
    # the pair is reported without a combined label, with the caveat
    assert NON_CANONICAL in res.warnings


def test_mixed_report_pure_cases():
    # a pure free or a pure torsion base carries no splitting caveat
    lat = rb.build_sphere2(8, 12)
    h, j = rb.model_degree_k_sphere(1)
    sphere = rb.classify_real_bundle(h, j, lat, {0})
    assert (sphere.free, sphere.torsion, sphere.verdict) == ([1], [], "Chern 1")
    assert NON_CANONICAL not in sphere.warnings

    latc = rb.build_circle(16, "trivial")
    circle = rb.classify_real_bundle(rb.model_mobius_circle(), lat=latc)
    assert (circle.free, circle.torsion, circle.verdict) == ([], [-1], "Mobius class")
    assert NON_CANONICAL not in circle.warnings


def test_torus_trivial_classification():
    lat = rb.build_torus2(8, 8, "trivial")
    res = rb.classify_real_bundle(rb.model_trivial_line("torus2-trivial", 2), lat=lat)
    assert res.group == "Z2 + Z2"
    assert res.torsion == [1, 1]


def test_xi_classification():
    lat = rb.build_torus2(8, 8, "xi")
    res = rb.classify_real_bundle(rb.model_trivial_line("torus2-xi", 2), lat=lat)
    assert res.group == "Z"
    assert res.free == [0]
    assert res.torsion == []


def test_unsupported_parity():
    lat = rb.build_torus2(8, 8, "eta")
    q = rb.quaternionic_q(2)
    spec = rb.ProductConnectionSpec(
        rank=2,
        connection=rb.pointwise(lambda c: np.zeros((2, 2, 2), dtype=complex)),
        j=rb.SymmetryData.constant(q, -1, "odd"),
        base_tag="torus2-eta",
    )
    with pytest.raises(UnsupportedParityError):
        rb.classify_real_bundle(spec, lat=lat)


def test_unsupported_base():
    lat = rb.build_torus2(8, 8, "eta")
    lat.involution_kind = "exotic"
    with pytest.raises(UnsupportedBaseError):
        rb.classify_real_bundle(rb.model_trivial_line("x", 2), lat=lat)


def test_gap_closure_propagates():
    lat = rb.build_circle(8, "trivial")
    h = constant_diag([0.0, 0.0])
    with pytest.raises(GapClosureError):
        rb.classify_real_bundle(h, rb.SymmetryData.identity(2), lat, {0})


def test_symmetry_violation_detected(rng):
    lat = rb.build_sphere2(6, 8)
    h, _ = rb.model_degree_k_sphere(1)
    bad_j = rb.SymmetryData(
        2, +1, rb.pointwise(lambda c: np.diag([np.exp(1j * c[1]), 1.0])), "broken"
    )
    with pytest.raises(SymmetryViolationError):
        rb.classify_real_bundle(h, bad_j, lat, {0})


@pytest.mark.parametrize("site_dependent", [False, True])
def test_non_unitary_j_fails_the_unitary_check(site_dependent):
    # J conj(J) = 1 and J^dag H J = conj(H) hold, but J is not unitary.  The
    # projection residual from the columns reads 0 here (band 0 is e1), so
    # only ||J^dag J - 1|| = sqrt(2 c^2 + c^4) = 0.75 can reject it.
    c = 0.5
    mat = np.array([[1.0, c], [0.0, -1.0]], dtype=complex)
    if site_dependent:
        j = rb.SymmetryData(2, +1, rb.pointwise(lambda x: mat), "non-unitary")
    else:
        j = rb.SymmetryData.constant(mat, +1, "non-unitary")
    lat = rb.build_circle(16, "trivial")
    h = constant_diag([0.0, 1.0])
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    assert rep.hamiltonian_residual == 0.0
    assert rep.unitary_residual == pytest.approx(0.75, rel=1e-14)
    assert not rep.symmetric
    p = rb.select_projection(rb.eigensolve_family(h, lat), {0})
    assert rb.verify_projection_symmetry(p, j, lat) == 0.0
    with pytest.raises(SymmetryViolationError, match="unitary residual 7.500e-01"):
        rb.classify_real_bundle(h, j, lat, {0})


def test_isomorphism_invariance_under_orthogonal_rotation(rng):
    # conjugating by a constant real orthogonal matrix preserves the Real
    # structure and must not change any invariant
    theta = rng.uniform(0, 2 * np.pi)
    o = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    lat = rb.build_sphere2(10, 12)
    h, j = rb.model_degree_k_sphere(1)

    def rotated(coords):
        return o @ h(coords) @ o.T

    h2 = rb.HamiltonianFamily(2, rotated, "rotated")
    res1 = rb.classify_real_bundle(h, j, lat, {0})
    res2 = rb.classify_real_bundle(h2, j, lat, {0})
    assert res1.free == res2.free
    assert res1.torsion == res2.torsion
    assert res1.verdict == res2.verdict


def test_verdict_stability_under_refinement():
    for n in (12, 24):
        lat = rb.build_torus2(n, n, "eta")
        res = rb.classify_real_bundle(rb.model_mobius_pullback_torus(), lat=lat)
        assert (res.group, res.free, res.torsion) == ("Z2 + Z", [0], [-1, -1])
    for n in (8, 16):
        lat = rb.build_torus2(n, n, "eta1")
        h, j = rb.model_oscillator(rb.OscillatorParams(n_basis=30), lat)
        res = rb.classify_real_bundle(h, j, lat, {0})
        assert (res.group, res.free, res.torsion) == ("Z2 + Z", [0], [1, 1])
    for scale in (1, 2):
        lat = rb.build_sphere2(8 * scale, 12 * scale)
        h, j = rb.model_degree_k_sphere(-1)
        res = rb.classify_real_bundle(h, j, lat, {0})
        assert (res.group, res.free) == ("Z", [-1])


def test_whitney_sum_behavior():
    # torsion signs multiply for line-bundle sums over the circle
    lat = rb.build_circle(32, "trivial")
    total = rb.direct_sum_specs(
        rb.model_mobius_circle(), rb.model_trivial_line("circle-trivial", 1)
    )
    res = rb.classify_real_bundle(total, lat=lat)
    assert res.torsion == [-1]

    # twisted plus twisted is untwisted: (-1) * (-1) on both fixed loops
    latp = rb.build_torus2(12, 12, "eta")
    double = rb.direct_sum_specs(
        rb.model_mobius_pullback_torus(), rb.model_mobius_pullback_torus()
    )
    resp = rb.classify_real_bundle(double, lat=latp)
    assert resp.torsion == [1, 1]
    assert resp.free == [0]

    # Chern numbers add for sphere sums
    lat2 = rb.build_sphere2(10, 12)
    h, j = rb.direct_sum_hamiltonians(
        rb.model_degree_k_sphere(1), rb.model_degree_k_sphere(-2)
    )
    res2 = rb.classify_real_bundle(h, j, lat2, {0, 1})
    assert res2.free == [-1]


def test_json_roundtrip():
    import json

    lat = rb.build_sphere2(8, 12)
    h, j = rb.model_degree_k_sphere(1)
    res = rb.classify_real_bundle(h, j, lat, {0})
    blob = json.dumps(res.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["group"] == "Z"
    assert parsed["free"] == [1]
