import math

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
from realbloch.errors import UnsupportedBaseError


def uniform_flux_field(n, phi0):
    """Torus link field whose every plaquette carries flux exp(i phi0).

    Landau-style gauge with the boundary twist on the seam row, so the flux
    is uniform across the periodic wrap as well.
    """
    lat = rb.build_torus2(n, n, "trivial")
    u = np.ones((lat.n_links, 1, 1), dtype=complex)
    for lk in range(lat.n_links):
        i, j = divmod(int(lat.link_tail[lk]), n)
        if lat.link_mu[lk] == 1:
            u[lk, 0, 0] = np.exp(1j * phi0 * i)
        elif i == n - 1:  # seam links carry the twist
            u[lk, 0, 0] = np.exp(-1j * phi0 * n * j)
    return lat, rb.LinkField(u)


def sphere_band_curvature(k, n_theta, n_phi, band={0}):
    lat = rb.build_sphere2(n_theta, n_phi)
    h, j = rb.model_degree_k_sphere(k)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, band)
    f = rb.frame_from_projection(p)
    u = rb.link_field(f, lat)
    return lat, p, f, rb.plaquette_curvature(u, lat)


def test_identity_links_zero_curvature():
    lat = rb.build_torus2(6, 6, "trivial")
    u = rb.LinkField(np.ones((lat.n_links, 1, 1), dtype=complex))
    curv = rb.plaquette_curvature(u, lat)
    assert np.allclose(curv.f, 0.0)
    value, rounded = rb.chern_number(curv, lat)
    assert rounded == 0 and abs(value) <= 1e-12


def test_uniform_flux_plaquettes():
    n = 8
    phi0 = 2 * np.pi / n**2
    lat, u = uniform_flux_field(n, phi0)
    curv = rb.plaquette_curvature(u, lat)
    assert np.allclose(curv.f[:, 0, 0], 1j * phi0, atol=1e-12)
    value, rounded = rb.chern_number(curv, lat)
    assert rounded == -1 and abs(value - rounded) <= 1e-9
    assert rb.chern_weil_density(curv, 1)[0] == pytest.approx(-phi0 / (2 * np.pi))


def test_chern_weil_diagonal_values():
    lat = rb.build_torus2(4, 4, "trivial")
    a, b = 0.3, -0.7
    f = np.tile(np.diag([1j * a, 1j * b]), (lat.n_plaquettes, 1, 1))
    curv = rb.CurvatureField(f)
    c1 = rb.chern_weil_density(curv, 1)
    c2 = rb.chern_weil_density(curv, 2)
    assert c1[0] == pytest.approx(-(a + b) / (2 * np.pi))
    assert c2[0] == pytest.approx(a * b / (4 * np.pi**2))
    with pytest.raises(ValueError):
        rb.chern_weil_density(curv, 3)


def test_zero_curvature_all_densities():
    lat = rb.build_torus2(4, 4, "trivial")
    curv = rb.CurvatureField(np.zeros((lat.n_plaquettes, 2, 2), dtype=complex))
    assert np.allclose(rb.chern_weil_density(curv, 1), 0.0)
    assert np.allclose(rb.chern_weil_density(curv, 2), 0.0)


def test_sphere_chern_equals_oracle():
    lat, _, _, curv = sphere_band_curvature(1, 8, 12)
    value, rounded = rb.chern_number(curv, lat)
    assert abs(value - rounded) <= 1e-9
    assert rounded == 1  # the family's degree k


def test_opposite_degrees_opposite_chern():
    lat, _, _, cp = sphere_band_curvature(2, 8, 12)
    _, _, _, cm = sphere_band_curvature(-2, 8, 12)
    vp, np_ = rb.chern_number(cp, lat)
    vm, nm = rb.chern_number(cm, lat)
    assert np_ == 2 and nm == -2
    assert vp == pytest.approx(-vm, abs=1e-9)


def test_orientation_reversal_negates_chern():
    lat, p, f, curv = sphere_band_curvature(1, 8, 12)
    value, _ = rb.chern_number(curv, lat)
    rev = lat.with_reversed_orientation()
    h, _ = rb.model_degree_k_sphere(1)
    s = rb.eigensolve_family(h, rev)
    fr = rb.frame_from_projection(rb.select_projection(s, {0}))
    u = rb.link_field(fr, rev)
    value_rev, _ = rb.chern_number(rb.plaquette_curvature(u, rev), rev)
    assert value_rev == pytest.approx(-value, abs=1e-12)


def test_chern_needs_two_dimensions():
    lat = rb.build_circle(8, "trivial")
    curv = rb.CurvatureField(np.zeros((0, 1, 1), dtype=complex))
    with pytest.raises(UnsupportedBaseError):
        rb.chern_number(curv, lat)


def test_mobius_pullback_is_flat():
    lat = rb.build_torus2(12, 12, "eta")
    u = rb.link_field_from_connection(rb.model_mobius_pullback_torus(), lat)
    curv = rb.plaquette_curvature(u, lat)
    assert np.max(np.abs(curv.f)) <= 1e-12
    value, rounded = rb.chern_number(curv, lat)
    assert rounded == 0 and abs(value) <= 1e-9


def test_curvature_parity_sphere_and_broken(rng):
    lat, _, _, curv = sphere_band_curvature(1, 8, 12)
    assert ref.curvature_parity_check(curv, lat) <= 1e-12
    noisy = rb.CurvatureField(curv.f + 1j * rng.normal(scale=0.3, size=curv.f.shape))
    assert ref.curvature_parity_check(noisy, lat) > 0.05


def test_parity_trivial_involution_real_field():
    lat = rb.build_torus2(6, 6, "trivial")
    u = rb.LinkField(np.ones((lat.n_links, 1, 1), dtype=complex))
    curv = rb.plaquette_curvature(u, lat)
    assert ref.curvature_parity_check(curv, lat) == 0.0


def test_direct_curvature_constant_projector():
    lat = rb.build_torus2(6, 6, "trivial")
    cols = np.zeros((lat.n_sites, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    proj = rb.ProjectionFamily(cols, (0,))
    direct = rb.gb_curvature_direct(proj, lat, rb.Frame(cols))
    assert np.allclose(direct.f, 0.0)


def test_direct_curvature_cross_validates_chern():
    # the projector-difference curvature integrates to the same integer and
    # converges to the link-product value at first order
    errs = []
    for n_theta, n_phi in ((8, 12), (16, 24)):
        lat, p, f, curv = sphere_band_curvature(1, n_theta, n_phi)
        direct = rb.gb_curvature_direct(p, lat, f)
        total = math.fsum(rb.chern_weil_density(direct, 1))
        assert round(total) == 1
        errs.append(abs(total - 1.0))
    assert errs[1] <= 0.6 * errs[0]


def test_direct_curvature_matches_oscillator_form():
    params = rb.OscillatorParams()
    lat = rb.build_torus2(12, 12, "eta1")
    h, j = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    ref = rb.oscillator_reference_section(params, lat)
    f = rb.frame_from_projection(p, ref)
    direct = rb.gb_curvature_direct(p, lat, f)
    dev = 0.0
    for pq in range(lat.n_plaquettes):
        target = rb.oscillator_curvature_component(params, lat.plaquette_centers[pq])
        dev = max(dev, abs(direct.f[pq, 0, 0] / lat.plaquette_areas[pq] - target))
    assert dev < 0.05  # first-order scheme on a coarse grid


def test_gauge_invariance_small(rng):
    lat, p, f, curv = sphere_band_curvature(1, 6, 8)
    h, _ = rb.model_degree_k_sphere(1)
    u = rb.link_field(f, lat)
    v0, _ = rb.chern_number(curv, lat)
    for _ in range(5):
        g = np.exp(1j * rng.uniform(0, 2 * np.pi, lat.n_sites))[:, None, None]
        u2 = ref.gauge_transform(u, g, lat)
        v1, _ = rb.chern_number(rb.plaquette_curvature(u2, lat), lat)
        assert abs(v1 - v0) <= 1e-12
