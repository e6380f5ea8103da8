import numpy as np
import pytest

import realbloch as rb
from realbloch import models
from realbloch.errors import TruncationError


def test_hermite_value_at_origin():
    # ground state at unit frequency: pi^(-1/4)
    assert rb.hermite_eigenfunction(0, 0.0, 1.0, 0.0) == pytest.approx(
        np.pi**-0.25
    )


def test_hermite_orthonormality_by_quadrature():
    nodes, weights = np.polynomial.hermite.hermgauss(120)
    bare = weights * np.exp(nodes**2)
    nu, phi = 1.3, 0.7
    funcs = [rb.hermite_eigenfunction(n, nodes, nu, phi) for n in range(7)]
    for n in range(7):
        for m in range(7):
            overlap = np.sum(bare * np.conj(funcs[n]) * funcs[m])
            assert overlap == pytest.approx(float(n == m), abs=1e-10)


def test_hermite_time_reversal_property():
    r = np.linspace(-3, 3, 31)
    psi_plus = rb.hermite_eigenfunction(3, r, 1.4, 0.6)
    psi_minus = rb.hermite_eigenfunction(3, r, 1.4, -0.6)
    assert np.allclose(np.conj(psi_plus), psi_minus)


def test_hermite_large_argument_no_overflow():
    vals = rb.hermite_eigenfunction(8, np.array([50.0, -80.0]), 2.0, 0.3)
    assert np.all(np.isfinite(vals))
    assert np.all(np.abs(vals) < 1e-100)


def test_oscillator_params_validation():
    with pytest.raises(TruncationError):
        rb.OscillatorParams(level=0, n_basis=10)
    with pytest.raises(ValueError):
        rb.OscillatorParams(delta=0.0)
    with pytest.raises(ValueError):
        rb.OscillatorParams(level=-1)


def test_oscillator_needs_reflection_torus():
    # the model and its Real section: only on eta1 does tau keep theta2 and
    # negate theta1
    params = rb.OscillatorParams()
    lattices = [rb.build_circle(8, kind) for kind in ("trivial", "reflection", "antipodal")]
    lattices += [rb.build_torus2(4, 4, kind) for kind in ("trivial", "eta", "xi")]
    lattices.append(rb.build_sphere2(4, 6))
    for lat in lattices:
        for build in (rb.model_oscillator, rb.oscillator_reference_section):
            with pytest.raises(ValueError, match="torus with the theta1 reflection"):
                build(params, lat)


SECTION_PARAMS = {
    "default": rb.OscillatorParams(),
    # nu and phi vary with theta2, and phi reads -0.0 where cos(theta2) < 0
    "cos": rb.OscillatorParams(
        level=2, f=np.cos, df=lambda t: -np.sin(t), g=np.cos, dg=lambda t: -np.sin(t)
    ),
}


@pytest.mark.parametrize("shape", [(12, 16), (48, 48)])
@pytest.mark.parametrize("case", sorted(SECTION_PARAMS))
def test_reference_section_is_real(case, shape):
    # each orbit representative s <= tau(s) holds its own evaluation's row
    # bit for bit, and each image the conjugate of its representative's
    p = SECTION_PARAMS[case]
    lat = rb.build_torus2(*shape, "eta1")
    section = rb.oscillator_reference_section(p, lat)
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    bare = weights * np.exp(nodes**2)
    basis = np.stack(
        [rb.hermite_eigenfunction(j, nodes, 1.0, 0.0).real for j in range(p.n_basis)]
    )
    tau, ids = lat.involution, np.arange(lat.n_sites)
    reps, images = ids[ids <= tau], ids[ids > tau]
    x = lat.sites[reps]
    psi = rb.hermite_eigenfunction(p.level, nodes, p.nu(x)[:, None], p.phi(x)[:, None])
    assert np.array_equal(section[reps], (bare * psi) @ basis.T)
    assert np.array_equal(section[images], section[tau[images]].conj())
    assert images.size == (lat.n_sites - lat.fixed_sites.size) // 2


def test_hermite_basis_in_one_recurrence():
    nodes = np.polynomial.hermite.hermgauss(96)[0]
    for n in (0, 1, 39):
        want = np.stack([rb.hermite_eigenfunction(j, nodes, 1.0, 0.0).real
                         for j in range(n + 1)])
        assert models._normalized_hermite(n, nodes).tobytes() == want.tobytes()


def test_oscillator_truncation_error_detected():
    params = rb.OscillatorParams(level=14, n_basis=34)
    lat = rb.build_torus2(4, 4, "eta1")
    with pytest.raises(TruncationError):
        rb.model_oscillator(params, lat)


def test_oscillator_terms_keep_the_closed_form_bits():
    # the affine oscillator sums its terms p^2/2, q^2/2 and (pq + qp)/2 with
    # coefficients 1, nu^2 + phi^2 and phi; factoring out 1/2 is exact, and
    # each part sums only the terms that carry it, so the stack keeps the
    # bits of the closed form, signed zeros included (phi = 0 on theta1 = 0)
    params = rb.OscillatorParams(level=1, n_basis=40, delta=0.8)
    lat = rb.build_torus2(8, 8, "eta1")
    h, _ = rb.model_oscillator(params, lat)
    assert h.sample(lat.sites).shape == (lat.n_sites, 3)
    q2, p2, pq_qp = rb.models._ladder_blocks(40)
    nu = params.nu(lat.sites)[:, None, None]
    phi = params.phi(lat.sites)[:, None, None]
    want = np.empty((lat.n_sites, 40, 40), dtype=complex)
    want.real = 0.5 * ((nu * nu + phi * phi) * q2 + p2)
    want.imag = (0.5 * phi) * pq_qp.imag
    assert np.signbit(want.imag).any()
    assert h(lat.sites).tobytes() == want.tobytes()
    assert h(lat.sites[5]).tobytes() == want[5].tobytes()


def test_oscillator_symmetry_residual():
    params = rb.OscillatorParams()
    lat = rb.build_torus2(6, 6, "eta1")
    h, j = rb.model_oscillator(params, lat)
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    assert rep.hamiltonian_residual <= 1e-10


def test_analytic_connection_values():
    # flat frequency, unit anomaly profile: components (-i/4, 0) at theta1=0
    params = rb.OscillatorParams(
        f=lambda t: 0.0, df=lambda t: 0.0, g=lambda t: 1.0, dg=lambda t: 0.0
    )
    a = rb.oscillator_analytic_connection(params, (0.0, 0.3))
    assert a[0] == pytest.approx(-0.25j)
    assert a[1] == pytest.approx(0.0)
    # constant anomaly profile: zero connection
    frozen = rb.OscillatorParams(
        g=lambda t: 0.0, dg=lambda t: 0.0
    )
    assert np.allclose(rb.oscillator_analytic_connection(frozen, (0.5, 0.2)), 0.0)


def test_analytic_connection_scales_with_level():
    base = rb.OscillatorParams(level=0)
    tripled = rb.OscillatorParams(level=1)  # 2n+1: 1 -> 3
    pt = (0.4, 1.1)
    assert np.allclose(
        rb.oscillator_analytic_connection(tripled, pt),
        3.0 * rb.oscillator_analytic_connection(base, pt),
    )


def test_analytic_curvature_values():
    params = rb.OscillatorParams(
        f=lambda t: 0.0, df=lambda t: 0.0, g=lambda t: 1.0, dg=lambda t: 0.0
    )
    assert rb.oscillator_analytic_curvature(params, (0.0, 0.0)) == pytest.approx(
        0.25j
    )
    # constant frequency means no curvature in the chart
    assert rb.oscillator_curvature_component(params, (0.3, 0.8)) == pytest.approx(0.0)


def test_curvature_is_exterior_derivative_of_connection():
    params = rb.OscillatorParams()
    pt = np.array([0.7, 1.3])
    h = 1e-5

    def a_at(q):
        return rb.oscillator_analytic_connection(params, q)

    d1a2 = (a_at(pt + [h, 0])[1] - a_at(pt - [h, 0])[1]) / (2 * h)
    d2a1 = (a_at(pt + [0, h])[0] - a_at(pt - [0, h])[0]) / (2 * h)
    assert d1a2 - d2a1 == pytest.approx(
        rb.oscillator_curvature_component(params, pt), abs=1e-8
    )


def test_connection_deviation_insensitive_to_basis_size():
    # at fixed grid spacing the closed-form deviation is discretization
    # dominated: doubling the basis moves it by less than a ppm
    devs = {}
    for n_basis in (40, 80):
        params = rb.OscillatorParams(n_basis=n_basis)
        lat = rb.build_torus2(8, 8, "eta1")
        h, _ = rb.model_oscillator(params, lat)
        s = rb.eigensolve_family(h, lat)
        p = rb.select_projection(s, {0})
        f = rb.frame_from_projection(p, rb.oscillator_reference_section(params, lat))
        a = rb.local_connection_from_links(rb.link_field(f, lat), lat)
        dev = 0.0
        for lk in range(lat.n_links):
            mid = lat.link_midpoint(lk)
            mu = int(lat.link_mu[lk])
            target = rb.oscillator_analytic_connection(params, mid)[mu]
            dev = max(dev, abs(a.a[lk, 0, 0] - target))
        devs[n_basis] = dev
    assert abs(devs[40] - devs[80]) <= 1e-6


def test_mobius_circle_spec():
    spec = rb.model_mobius_circle()
    lat = rb.build_circle(32, "trivial")
    u = rb.link_field_from_connection(spec, lat)
    hol = rb.wilson_loop(u, rb.circle_loop(lat), lat)
    assert hol.hol[0, 0] == pytest.approx(-1.0, abs=1e-12)
    # J(tau x) conj(J(x)) = 1 site by site
    tau = lat.involution
    for s in range(lat.n_sites):
        jj = spec.j(lat.sites[tau[s]]) * np.conj(spec.j(lat.sites[s]))
        assert jj[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_degree_model_symmetry_and_gap():
    lat = rb.build_sphere2(8, 12)
    for k in (1, -2):
        h, j = rb.model_degree_k_sphere(k)
        rep = rb.verify_hamiltonian_symmetry(h, j, lat)
        assert rep.hamiltonian_residual <= 1e-12
        s = rb.eigensolve_family(h, lat)
        assert rb.gap_margin(s, {0}) > 1.0  # 2|d| >= sqrt(3)
    with pytest.raises(ValueError):
        rb.model_degree_k_sphere(0)


def test_degree_oracle_exact_small_degrees():
    lat = rb.build_sphere2(8, 12)
    for k in (-3, -2, -1, 1, 2, 3):
        assert rb.degree_oracle(k, lat) == k


def test_mobius_pullback_spec():
    spec = rb.model_mobius_pullback_torus()
    lat = rb.build_torus2(12, 12, "eta")
    tau = lat.involution
    for s in range(lat.n_sites):
        jj = spec.j(lat.sites[tau[s]]) * np.conj(spec.j(lat.sites[s]))
        assert jj[0, 0] == pytest.approx(1.0, abs=1e-12)
    u = rb.link_field_from_connection(spec, lat)
    value, rounded = rb.chern_number(rb.plaquette_curvature(u, lat), lat)
    assert rounded == 0
    w = rb.SewingField(spec.j(lat.sites), +1, 0.0)
    assert [r.sign for r in rb.fixed_loop_holonomies(u, lat, w)] == [-1, -1]


def test_direct_sum_specs_block_structure():
    s1 = rb.model_mobius_circle()
    s2 = rb.model_trivial_line("circle-trivial", 1)
    total = rb.direct_sum_specs(s1, s2)
    a = total.connection_at((0.3,))
    assert a.shape == (1, 2, 2)
    assert a[0, 0, 0] == pytest.approx(-0.5j)
    assert a[0, 1, 1] == 0.0
    assert a[0, 0, 1] == a[0, 1, 0] == 0.0
    with pytest.raises(ValueError):
        rb.direct_sum_specs(s1, rb.model_trivial_line("circle-reflection", 1))


def test_direct_sum_hamiltonians():
    pair = rb.direct_sum_hamiltonians(
        rb.model_degree_k_sphere(1), rb.model_degree_k_sphere(-1)
    )
    h, j = pair
    assert h.dimension == 4
    lat = rb.build_sphere2(6, 8)
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    assert rep.hamiltonian_residual <= 1e-12
