import numpy as np
import pytest

import realbloch as rb
from conftest import constant_diag, mobius_two_band
from realbloch.errors import (
    KramersObstructionError,
    SymmetryInconsistencyError,
    SymmetryViolationError,
)


def test_oscillator_hamiltonian_symmetry():
    params = rb.OscillatorParams()
    lat = rb.build_torus2(6, 6, "eta1")
    h, j = rb.model_oscillator(params, lat)
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    assert rep.hamiltonian_residual <= 1e-12
    assert rep.unitary_residual <= 1e-12
    assert rep.symmetric


def test_sphere_hamiltonian_symmetry():
    lat = rb.build_sphere2(6, 8)
    h, j = rb.model_degree_k_sphere(1)
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    assert rep.hamiltonian_residual <= 1e-12


def test_broken_hamiltonian_symmetry_is_order_one(rng):
    lat = rb.build_circle(8, "reflection")
    mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    mat = mat + mat.conj().T

    def evaluate(coords):
        return mat * (1.0 + np.cos(coords[0])) + np.diag([0, 1, 2]) * np.sin(
            coords[0]
        )

    h = rb.HamiltonianFamily(3, rb.pointwise(evaluate), "broken")
    rep = rb.verify_hamiltonian_symmetry(h, rb.SymmetryData.identity(3), lat)
    assert rep.hamiltonian_residual > 0.1


def test_projection_symmetry_cases(rng):
    lat = rb.build_circle(8, "reflection")
    # constant diagonal family: exact symmetry
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    p = rb.select_projection(s, {0})
    assert rb.verify_projection_symmetry(p, rb.SymmetryData.identity(2), lat) == 0.0
    # deliberately broken J
    bad = rb.SymmetryData(
        2, +1, rb.pointwise(lambda c: np.array([[np.exp(1j * c[0]), 0], [0, 1]])), "bad"
    )
    lat2 = rb.build_sphere2(4, 6)
    h, _ = rb.model_degree_k_sphere(1)
    spec = rb.eigensolve_family(h, lat2)
    proj = rb.select_projection(spec, {0})
    assert rb.verify_projection_symmetry(proj, bad, lat2) > 0.1


def test_projection_symmetry_follows_hamiltonian():
    lat = rb.build_sphere2(6, 8)
    h, j = rb.model_degree_k_sphere(2)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    assert rb.verify_projection_symmetry(p, j, lat) <= 1e-8


def test_sewing_identity_for_real_frames():
    lat = rb.build_circle(8, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    w = rb.sewing_matrix(f, rb.SymmetryData.identity(2), lat)
    assert np.allclose(w.w, np.ones((8, 1, 1)))


def test_sewing_unitary_modulus_mobius():
    lat = rb.build_circle(16, "trivial")
    h, j = mobius_two_band()
    s = rb.eigensolve_family(h, lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    w = rb.sewing_matrix(f, j, lat)
    assert np.allclose(np.abs(w.w[:, 0, 0]), 1.0, atol=1e-10)


def test_sewing_parity_relation():
    # W(tau x) conj(W(x)) = parity * identity
    lat = rb.build_torus2(6, 6, "eta1")
    params = rb.OscillatorParams(n_basis=30, level=0)
    h, j = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    w = rb.sewing_matrix(f, j, lat)
    tau = lat.involution
    for site in range(lat.n_sites):
        val = w.w[tau[site]] @ w.w[site].conj()
        assert np.allclose(val, np.eye(1), atol=1e-8)


def test_sewing_rejects_asymmetric_projection():
    # real rotating frame on the reflection circle: P(tau x) differs from
    # conj(P(x)), so the would-be sewing matrix loses unitarity
    lat = rb.build_circle(8, "reflection")
    cols = np.zeros((8, 2, 1), dtype=complex)
    cols[:, 0, 0] = np.cos(0.5 * lat.sites[:, 0])
    cols[:, 1, 0] = np.sin(0.5 * lat.sites[:, 0])
    f = rb.Frame(cols)
    with pytest.raises(SymmetryInconsistencyError):
        rb.sewing_matrix(f, rb.SymmetryData.identity(2), lat)


def test_kramers_obstruction():
    # odd parity with rank one over fixed points cannot be sewn
    lat = rb.build_circle(8, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    q = rb.quaternionic_q(2)
    j = rb.SymmetryData.constant(q, -1, "quaternionic")
    with pytest.raises(KramersObstructionError):
        rb.sewing_matrix(f, j, lat)


def test_sewing_gauge_covariance(rng):
    lat = rb.build_circle(16, "trivial")
    h, j = mobius_two_band()
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    f = rb.frame_from_projection(p)
    w = rb.sewing_matrix(f, j, lat)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, lat.n_sites))
    g = phases[:, None, None]
    f2 = rb.Frame(f.columns * g, "gauged")
    w2 = rb.sewing_matrix(f2, j, lat)
    tau = lat.involution
    for site in range(lat.n_sites):
        expect = g[tau[site]].conj().T @ w.w[site] @ g[site].conj()
        assert np.allclose(w2.w[site], expect, atol=1e-10)
    # verification residuals are frame-independent
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    assert rep.hamiltonian_residual <= 1e-12


def test_obstruction_constant_j_exactly_zero():
    lat = rb.build_sphere2(6, 8)
    h, j = rb.model_degree_k_sphere(1)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    assert rb.gb_equivariance_obstruction(p, j, lat) == 0.0


def test_obstruction_winding_j_order_one():
    lat = rb.build_torus2(8, 8, "eta")
    j = rb.SymmetryData(
        2, +1, rb.pointwise(lambda c: np.exp(1j * c[0]) * np.eye(2)), "winding"
    )
    cols = np.zeros((lat.n_sites, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    proj = rb.ProjectionFamily(cols, (0,))
    assert rb.gb_equivariance_obstruction(proj, j, lat) > 0.5


def test_obstruction_empty_projection_zero():
    lat = rb.build_circle(8, "trivial")
    proj = rb.ProjectionFamily(np.zeros((8, 2, 0), dtype=complex), ())
    j = rb.SymmetryData(
        2, +1, rb.pointwise(lambda c: np.exp(1j * c[0]) * np.eye(2)), "winding"
    )
    assert rb.gb_equivariance_obstruction(proj, j, lat) == 0.0


def test_quaternionic_q():
    q = rb.quaternionic_q(4)
    assert np.allclose(q @ q, -np.eye(4))
    with pytest.raises(ValueError):
        rb.quaternionic_q(3)


def nan_at_site(j, lat, site):
    """`j` with every entry NaN at one site."""

    def evaluate(coords):
        out = np.array(j(coords))
        out[(coords == lat.sites[site]).all(axis=1)] = np.nan
        return out

    return rb.SymmetryData(j.dimension, j.parity, evaluate, "nan-at-site")


def test_nan_residuals_propagate_and_fail_the_checks():
    # Python's max(0.0, nan) is 0.0: the accumulated residuals used to drop
    # the NaN, and classify returned "Chern 2"
    h, j = rb.model_degree_k_sphere(2)
    lat = rb.build_sphere2(12, 16)
    bad = nan_at_site(j, lat, 5)
    rep = rb.verify_hamiltonian_symmetry(h, bad, lat)
    assert np.isnan(rep.hamiltonian_residual) and np.isnan(rep.unitary_residual)
    assert not rep.symmetric
    p = rb.select_projection(rb.eigensolve_family(h, lat, [0]), [0])
    assert np.isnan(rb.verify_projection_symmetry(p, bad, lat))
    with pytest.raises(SymmetryInconsistencyError, match="residual nan exceeds"):
        rb.sewing_matrix(rb.frame_from_projection(p), bad, lat)
    with pytest.raises(SymmetryViolationError, match="residual nan / unitary"):
        rb.classify_real_bundle(h, bad, lat, [0])
    spec = rb.model_trivial_line("torus2-xi", 2)
    lat = rb.build_torus2(8, 8, "xi")
    spec.j = nan_at_site(spec.j, lat, 5)
    with pytest.raises(SymmetryViolationError, match="J equivariance residual nan"):
        rb.classify_real_bundle(spec, lat=lat)
