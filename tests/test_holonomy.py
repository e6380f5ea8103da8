import numpy as np
import pytest

import realbloch as rb
from realbloch.errors import BranchCutError, IndeterminateHolonomyError


def circle_curve(t):
    return (2 * np.pi * t,), (2 * np.pi,)


def sphere_model_links(k, n_theta, n_phi):
    lat = rb.build_sphere2(n_theta, n_phi)
    h, j = rb.model_degree_k_sphere(k)
    s = rb.eigensolve_family(h, lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    u = rb.link_field(f, lat)
    w = rb.sewing_matrix(f, j, lat)
    return lat, u, w


def test_identity_links_unit_holonomy():
    lat = rb.build_circle(8, "trivial")
    u = rb.LinkField(np.ones((8, 1, 1), dtype=complex))
    hol = rb.wilson_loop(u, rb.circle_loop(lat), lat)
    assert np.allclose(hol.hol, 1.0)


def test_mobius_and_trivial_full_loop():
    lat = rb.build_circle(64, "trivial")
    u = rb.link_field_from_connection(rb.model_mobius_circle(), lat)
    hol = rb.wilson_loop(u, rb.circle_loop(lat), lat)
    assert abs(hol.hol[0, 0] + 1.0) <= 1e-9
    u0 = rb.link_field_from_connection(rb.model_trivial_line("circle-trivial", 1), lat)
    hol0 = rb.wilson_loop(u0, rb.circle_loop(lat), lat)
    assert abs(hol0.hol[0, 0] - 1.0) <= 1e-9


def test_continuum_holonomy_values():
    spec0 = rb.model_trivial_line("circle-trivial", 1)
    assert np.allclose(rb.continuum_holonomy(spec0, circle_curve, 64).hol, 1.0)
    mob = rb.continuum_holonomy(rb.model_mobius_circle(), circle_curve, 64)
    assert abs(mob.hol[0, 0] + 1.0) <= 1e-3
    flat = rb.continuum_holonomy(rb.model_flat_line(0.25), circle_curve, 64)
    assert flat.hol[0, 0] == pytest.approx(np.exp(-0.5j * np.pi), abs=1e-9)


def test_continuum_holonomy_abelian_line_integral():
    # abelian pullback: A = i(a + b cos theta) dtheta integrates to
    # exp(-2 pi i a); the midpoint product of a smooth periodic integrand is
    # accurate to roundoff already at modest step counts
    a, b = 0.3, 0.45
    spec = rb.ProductConnectionSpec(
        rank=1,
        connection=rb.pointwise(lambda c: np.array([[[1j * (a + b * np.cos(c[0]))]]])),
        j=rb.SymmetryData.identity(1),
        base_tag="circle-trivial",
    )
    exact = np.exp(-2j * np.pi * a)
    hol = rb.continuum_holonomy(spec, circle_curve, 64).hol[0, 0]
    assert abs(hol - exact) <= 1e-12


def test_continuum_holonomy_second_order_nonabelian():
    # path ordering of noncommuting steps converges at second order
    sz = np.diag([1.0 + 0j, -1.0])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    spec = rb.ProductConnectionSpec(
        rank=2,
        connection=rb.pointwise(
            lambda c: np.array([1j * (0.4 * sz + 0.6 * np.cos(c[0]) * sx)])
        ),
        j=rb.SymmetryData.identity(2),
        base_tag="circle-trivial",
    )
    reference = rb.continuum_holonomy(spec, circle_curve, 8192).hol
    errs = [
        np.linalg.norm(rb.continuum_holonomy(spec, circle_curve, steps).hol - reference)
        for steps in (64, 128, 256)
    ]
    assert errs[1] <= 0.35 * errs[0]
    assert errs[2] <= 0.35 * errs[1]


def test_concatenation_and_reversal():
    lat, u, w = sphere_model_links(1, 6, 8)
    loop = rb.latitude_loop(lat, 2)
    loop2 = rb.latitude_loop(lat, 2)
    combined = rb.LoopPath(loop.sites + loop2.sites)
    h1 = rb.wilson_loop(u, loop, lat).hol
    h12 = rb.wilson_loop(u, combined, lat).hol
    assert np.allclose(h12, h1 @ h1, atol=1e-12)
    hrev = rb.wilson_loop(u, loop.reversed(), lat).hol
    assert np.allclose(hrev, np.linalg.inv(h1), atol=1e-12)


def test_flat_field_homotopy_invariance():
    # flat link field on the trivial torus: holonomy depends only on the
    # homotopy class of the loop
    n = 8
    lat = rb.build_torus2(n, n, "trivial")
    a = 0.37
    h1 = 2 * np.pi / n
    uvals = np.ones((lat.n_links, 1, 1), dtype=complex)
    for lk in range(lat.n_links):
        if lat.link_mu[lk] == 0:
            uvals[lk, 0, 0] = np.exp(1j * a * h1)
    u = rb.LinkField(uvals)
    assert np.max(np.abs(rb.plaquette_curvature(u, lat).f)) <= 1e-14
    row0 = rb.wilson_loop(u, rb.torus_row_loop(lat, 0, 0), lat).hol[0, 0]
    row3 = rb.wilson_loop(u, rb.torus_row_loop(lat, 0, 3), lat).hol[0, 0]
    assert row0 == pytest.approx(row3, abs=1e-10)
    # a homotopic detour: same winding, but dipping into the second row
    loop_sites = []
    prev_j = 0
    for i in range(n):
        j = 1 if 2 <= i < 5 else 0
        if j != prev_j:
            loop_sites.append(i * n + prev_j)
        loop_sites.append(i * n + j)
        prev_j = j
    hol_wiggly = rb.wilson_loop(u, rb.LoopPath(tuple(loop_sites)), lat).hol[0, 0]
    assert hol_wiggly == pytest.approx(row0, abs=1e-10)
    # contractible loop is trivial
    cell = rb.LoopPath((0, n, n + 1, 1))
    assert rb.wilson_loop(u, cell, lat).hol[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_trace_gauge_invariance(rng):
    lat, u, w = sphere_model_links(1, 6, 8)
    loop = rb.latitude_loop(lat, 3)
    t0 = rb.wilson_loop(u, loop, lat).trace
    for _ in range(5):
        g = np.exp(1j * rng.uniform(0, 2 * np.pi, lat.n_sites))[:, None, None]
        t1 = rb.wilson_loop(rb.gauge_transform(u, g, lat), loop, lat).trace
        assert t1 == pytest.approx(t0, abs=1e-12)


def test_fixed_loop_holonomies_trivial_and_pullback():
    lat = rb.build_torus2(12, 12, "eta")
    u0 = rb.link_field_from_connection(
        rb.model_trivial_line("torus2-eta", 2), lat
    )
    w0 = rb.SewingField(np.ones((lat.n_sites, 1, 1), dtype=complex), +1, 0.0)
    recs = rb.fixed_loop_holonomies(u0, lat, w0)
    assert [r.sign for r in recs] == [1, 1]

    spec = rb.model_mobius_pullback_torus()
    u = rb.link_field_from_connection(spec, lat)
    w = rb.SewingField(spec.j(lat.sites), +1, 0.0)
    recs = rb.fixed_loop_holonomies(u, lat, w)
    assert [r.sign for r in recs] == [-1, -1]
    assert all(r.reality_residual <= 1e-10 for r in recs)


def test_fixed_loop_sign_stable_under_refinement():
    for n in (16, 32):
        lat = rb.build_torus2(n, n, "eta")
        spec = rb.model_mobius_pullback_torus()
        u = rb.link_field_from_connection(spec, lat)
        w = rb.SewingField(spec.j(lat.sites), +1, 0.0)
        assert [r.sign for r in rb.fixed_loop_holonomies(u, lat, w)] == [-1, -1]


def test_indeterminate_holonomy_error():
    lat = rb.build_circle(16, "trivial")
    quarter = rb.link_field_from_connection(rb.model_flat_line(0.25), lat)
    w = rb.SewingField(np.ones((16, 1, 1), dtype=complex), +1, 0.0)
    with pytest.raises(IndeterminateHolonomyError):
        rb.fixed_loop_holonomies(quarter, lat, w)


def test_sewing_root_errors_keep_loop_order():
    # a quarter-flux row makes both eta fixed loops indeterminate; a sewing
    # eigenvalue at -1 raises only when its loop comes first
    lat = rb.build_torus2(8, 8, "eta")
    a = np.where(lat.link_mu == 0, 0.25j, 0.0)[:, None, None]
    u = rb.link_field_from_connection(rb.LocalConnectionForm(a), lat)
    loops = rb.fixed_loops(lat)
    for cut_loop, error in ((1, IndeterminateHolonomyError), (0, BranchCutError)):
        w = np.ones((lat.n_sites, 1, 1), dtype=complex)
        w[loops[cut_loop].base] = -1.0
        with pytest.raises(error):
            rb.fixed_loop_holonomies(u, lat, rb.SewingField(w, +1, 0.0))


def test_rank_one_sewing_root_keeps_its_bits():
    # the real-frame rotation uses exp(i angle(W) / 2), bit for bit
    lat = rb.build_circle(8, "trivial")
    u = rb.LinkField(np.ones((lat.n_links, 1, 1), dtype=complex))
    for z in np.exp(1j * np.random.default_rng(5).uniform(-3.0, 3.0, size=32)):
        w = rb.SewingField(np.full((lat.n_sites, 1, 1), z), +1, 0.0)
        (rec,) = rb.fixed_loop_holonomies(u, lat, w)
        g = np.array([[np.exp(0.5j * np.angle(z))]])
        assert rec.holonomy.hol.tobytes() == (g.conj().T @ u.u[0] @ g).tobytes()


def test_no_fixed_loops_is_an_empty_stack():
    lat = rb.build_circle(8, "antipodal")
    eye = np.eye(2, dtype=complex)
    u = rb.LinkField(np.tile(eye, (lat.n_links, 1, 1)))
    w = rb.SewingField(np.tile(eye, (lat.n_sites, 1, 1)), +1, 0.0)
    assert rb.fixed_loop_holonomies(u, lat, w) == []


def sphere_cell_loop(n_phi, ring, azimuth):
    """Boundary of one rectangular sphere plaquette; the reflection maps it
    to a genuinely different loop when the azimuth is off the fixed
    meridians (for rank one, loops mapped onto their own reversal test
    nothing since inverse and conjugate coincide)."""
    rid = lambda i, j: 2 + (i - 1) * n_phi + (j % n_phi)
    return rb.LoopPath(
        (
            rid(ring, azimuth),
            rid(ring + 1, azimuth),
            rid(ring + 1, azimuth + 1),
            rid(ring, azimuth + 1),
        )
    )


def test_holonomy_equivariance_check():
    lat, u, w = sphere_model_links(1, 8, 12)
    loops = [
        rb.latitude_loop(lat, 4),
        sphere_cell_loop(12, 2, 3),
        sphere_cell_loop(12, 5, 8),
    ]
    for loop in loops:
        assert rb.holonomy_equivariance_check(u, w, loop, lat) <= 1e-12
    # random links are far from equivariant on a loop the involution moves
    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, lat.n_links))
    urand = rb.LinkField(phases[:, None, None])
    assert rb.holonomy_equivariance_check(urand, w, sphere_cell_loop(12, 2, 3), lat) > 0.1


def test_holonomy_equivariance_with_winding_j():
    # non-constant J: the sewing field is J itself on product frames and the
    # conjugation relation still holds exactly for the twisted connection
    lat = rb.build_torus2(12, 12, "eta")
    spec = rb.model_mobius_pullback_torus()
    u = rb.link_field_from_connection(spec, lat)
    w = rb.SewingField(spec.j(lat.sites), +1, 0.0)
    for loop in (
        rb.torus_row_loop(lat, 0, 3),   # theta1 row at theta2 = 3h -> -3h
        rb.torus_row_loop(lat, 1, 2),   # theta2 column, reversed by eta
        rb.LoopPath((0, 12, 13, 1)),    # single cell near the fixed loop
    ):
        assert rb.holonomy_equivariance_check(u, w, loop, lat) <= 1e-12


def test_sphere_fixed_circle_sign_is_chern_parity():
    # restricting the degree-k bundle to the fixed great circle gives the
    # line with holonomy (-1)^k: the flux through a hemisphere is pi*k
    lat = rb.build_sphere2(12, 16)
    for k in (1, 2, -1):
        lat_, u, w = sphere_model_links(k, 12, 16)
        recs = rb.fixed_loop_holonomies(u, lat_, w)
        assert len(recs) == 1
        assert recs[0].sign == (-1) ** abs(k)
        assert recs[0].reality_residual <= 1e-10


def test_flat_moduli_values():
    assert rb.flat_moduli_holonomy(0.0) == pytest.approx(1.0)
    assert rb.flat_moduli_holonomy(0.5) == pytest.approx(-1.0)
    assert rb.flat_moduli_holonomy(0.25) == pytest.approx(np.exp(-0.5j * np.pi))
    for a in (0.1, 0.7):
        assert rb.flat_moduli_holonomy(a) == pytest.approx(
            rb.flat_moduli_holonomy(a + 1.0), abs=1e-12
        )
