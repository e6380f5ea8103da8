import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
from conftest import constant_diag
from realbloch.errors import (
    BranchCutError,
    DiscretizationError,
    DomainError,
    ModelError,
)


def winding_frame(lat, n_ambient=2):
    """psi(theta) = exp(i theta) e1: rank-1 frame with one unit of winding."""
    cols = np.zeros((lat.n_sites, n_ambient, 1), dtype=complex)
    cols[:, 0, 0] = np.exp(1j * lat.sites[:, 0])
    return rb.Frame(cols, "winding")


def test_constant_frame_gives_identity_links():
    lat = rb.build_circle(8, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    u = rb.link_field(f, lat)
    assert np.allclose(u.u, 1.0)


def test_winding_frame_links_and_loop_product():
    n = 12
    lat = rb.build_circle(n, "trivial")
    u = rb.link_field(winding_frame(lat), lat)
    assert np.allclose(u.u[:, 0, 0], np.exp(2j * np.pi / n), atol=1e-12)
    prod = np.prod(u.u[:, 0, 0])
    assert prod == pytest.approx(1.0, abs=1e-12)  # phase closes around the loop


def test_link_unitarity_drift():
    lat = rb.build_sphere2(6, 8)
    h, _ = rb.model_degree_k_sphere(2)
    s = rb.eigensolve_family(h, lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    u = rb.link_field(f, lat)
    for lk in range(lat.n_links):
        assert np.allclose(
            u.u[lk].conj().T @ u.u[lk], np.eye(1), atol=1e-12
        )


def test_singular_overlap_raises():
    lat = rb.build_circle(4, "trivial")
    cols = np.zeros((4, 2, 1), dtype=complex)
    cols[0::2, 0, 0] = 1.0
    cols[1::2, 1, 0] = 1.0  # orthogonal neighbors
    with pytest.raises(DiscretizationError):
        rb.link_field(rb.Frame(cols), lat)


def test_gauge_transform_law(rng):
    lat = rb.build_circle(8, "trivial")
    u = rb.link_field(winding_frame(lat), lat)
    # identity leaves the field alone
    same = rb.gauge_transform(u, np.tile(np.eye(1, dtype=complex), (8, 1, 1)), lat)
    assert np.allclose(same.u, u.u)
    # the defining transformation rule
    g = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))[:, None, None]
    out = rb.gauge_transform(u, g, lat)
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        assert np.allclose(out.u[lk], g[a].conj().T @ u.u[lk] @ g[b])
    with pytest.raises(DomainError):
        rb.gauge_transform(u, 2.0 * g, lat)


def test_constant_gauge_preserves_wilson_trace(rng):
    lat = rb.build_sphere2(6, 8)
    h, _ = rb.model_degree_k_sphere(1)
    s = rb.eigensolve_family(h, lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    u = rb.link_field(f, lat)
    loop = rb.latitude_loop(lat, 2)
    t0 = rb.wilson_loop(u, loop, lat).trace
    g = np.tile(np.exp(1j * 0.7) * np.eye(1, dtype=complex), (lat.n_sites, 1, 1))
    t1 = rb.wilson_loop(rb.gauge_transform(u, g, lat), loop, lat).trace
    assert t1 == pytest.approx(t0, abs=1e-12)


def test_local_connection_values():
    lat = rb.build_circle(8, "trivial")
    h = 2 * np.pi / 8
    # identity links -> zero form
    ones = rb.LinkField(np.ones((8, 1, 1), dtype=complex))
    assert np.allclose(rb.local_connection_from_links(ones, lat).a, 0.0)
    # scalar phase alpha -> i alpha / h
    alpha = 0.4
    u = rb.LinkField(np.full((8, 1, 1), np.exp(1j * alpha), dtype=complex))
    a = rb.local_connection_from_links(u, lat)
    assert np.allclose(a.a, 1j * alpha / h)
    # eigenvalue at -1 is a branch error
    um = rb.LinkField(np.full((8, 1, 1), -1.0 + 0j))
    with pytest.raises(BranchCutError):
        rb.local_connection_from_links(um, lat)


def test_local_connection_antihermitian():
    # smooth gauge (reference-aligned oscillator frame) keeps all link
    # phases well inside the principal branch
    params = rb.OscillatorParams(n_basis=30)
    lat = rb.build_torus2(8, 8, "eta1")
    h, _ = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    f = rb.frame_from_projection(p, rb.oscillator_reference_section(params, lat))
    a = rb.local_connection_from_links(rb.link_field(f, lat), lat)
    assert np.max(np.abs(a.a + a.a.conj().transpose(0, 2, 1))) <= 1e-10


def test_rank_one_form_must_be_imaginary():
    # a real part would give links of modulus exp(0.3 h), not unitaries
    lat = rb.build_circle(16, "trivial")
    bad = rb.LocalConnectionForm(np.full((lat.n_links, 1, 1), 0.3 + 0.5j))
    with pytest.raises(ModelError, match="^exponent 0 is not anti-Hermitian$"):
        rb.link_field_from_connection(bad, lat)
    a = np.full((lat.n_links, 1, 1), 0.5j)
    u = rb.link_field_from_connection(rb.LocalConnectionForm(a), lat)
    assert u.u.tobytes() == np.exp(a * lat.link_spacing[:, None, None]).tobytes()


def test_oscillator_connection_matches_closed_form():
    # flat-frequency variant: nu = 1, phi = sin(theta1)
    params = rb.OscillatorParams(
        f=lambda t: 0.0, df=lambda t: 0.0, g=lambda t: 1.0, dg=lambda t: 0.0
    )
    lat = rb.build_torus2(12, 12, "eta1")
    h, j = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    ref = rb.oscillator_reference_section(params, lat)
    f = rb.frame_from_projection(p, ref)
    a = rb.local_connection_from_links(rb.link_field(f, lat), lat)
    dev = 0.0
    for lk in range(lat.n_links):
        mid = lat.link_midpoint(lk)
        mu = int(lat.link_mu[lk])
        target = rb.oscillator_analytic_connection(params, mid)[mu]
        dev = max(dev, abs(a.a[lk, 0, 0] - target))
    assert dev < 8e-3


def test_equivariance_residual_cases(rng):
    # constant-J symmetric family: exact discrete equivariance
    lat = rb.build_sphere2(6, 8)
    h, j = rb.model_degree_k_sphere(1)
    s = rb.eigensolve_family(h, lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    u = rb.link_field(f, lat)
    w = rb.sewing_matrix(f, j, lat)
    assert rb.equivariance_residual(u, w, lat) <= 1e-12

    # random links are order-one away from equivariant
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, lat.n_links))
    urand = rb.LinkField(phases[:, None, None])
    assert rb.equivariance_residual(urand, w, lat) > 0.1

    # trivial involution with real links: residual vanishes identically
    lat2 = rb.build_circle(8, "trivial")
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0], dtype=complex)
    ureal = rb.LinkField(signs[:, None, None])
    w2 = rb.SewingField(np.ones((8, 1, 1), dtype=complex), +1, 0.0)
    assert rb.equivariance_residual(ureal, w2, lat2) == 0.0


def test_small_residual_forces_small_connection():
    # trivial involution, rank one: the Real condition pins the connection
    # near zero, so link logs are bounded by the equivariance residual
    lat = rb.build_circle(8, "trivial")
    w = rb.SewingField(np.ones((8, 1, 1), dtype=complex), +1, 0.0)
    for alpha in (1e-3, 1e-2, 0.1):
        u = rb.LinkField(np.full((8, 1, 1), np.exp(1j * alpha)))
        residual = rb.equivariance_residual(u, w, lat)
        assert abs(alpha) <= residual  # |log U| <= ||U - conj(U)||


def test_average_connection_properties(rng):
    lat = rb.build_circle(16, "trivial")
    jmob = rb.model_mobius_circle().j
    j1 = rb.SymmetryData.identity(1)
    # zero with identity twist stays zero
    zero = rb.LocalConnectionForm(np.zeros((lat.n_links, 1, 1), dtype=complex))
    assert np.allclose(rb.average_connection(zero, j1, lat).a, 0.0)
    # zero with the winding twist lands on the canonical half-winding form
    avg = rb.average_connection(zero, jmob, lat)
    assert np.allclose(avg.a, -0.5j, atol=1e-12)
    # already-equivariant input is a fixed point
    mob = rb.LocalConnectionForm(np.full((lat.n_links, 1, 1), -0.5j))
    assert np.allclose(rb.average_connection(mob, jmob, lat).a, mob.a, atol=1e-10)
    # random inputs average onto an exact fixed point of the twist map
    vals = 1j * rng.normal(size=lat.n_links)[:, None, None]
    a = rb.LocalConnectionForm(vals)
    avg = rb.average_connection(a, jmob, lat)
    again = rb.average_connection(avg, jmob, lat)
    assert np.max(np.abs(again.a - avg.a)) <= 1e-10


J_TWIST_CASES = {
    "mobius-circle": lambda: (rb.model_mobius_circle(), rb.build_circle(20, "trivial")),
    "mobius-eta-torus": lambda: (
        rb.model_mobius_pullback_torus(), rb.build_torus2(12, 12, "eta")
    ),
    "mobius-sum-circle": lambda: (
        rb.direct_sum_specs(rb.model_mobius_circle(), rb.model_mobius_circle()),
        rb.build_circle(20, "trivial"),
    ),
}


@pytest.mark.parametrize("case", sorted(J_TWIST_CASES))
def test_j_conjugate_connection_matches_loop(rng, case):
    spec, lat = J_TWIST_CASES[case]()
    gen = rng.normal(size=(lat.n_links, spec.rank, spec.rank)) * (1 + 1j)
    inputs = (
        rb.local_connection_from_spec(spec, lat),
        rb.LocalConnectionForm(gen - gen.conj().swapaxes(1, 2)),
    )
    for a in inputs:
        got = rb.j_conjugate_connection(a, spec.j, lat)
        want = ref.j_conjugate_connection(a, spec.j, lat)
        assert np.max(np.abs(got.a - want.a)) <= 1e-12


def test_j_step_branch_cut_names_same_link():
    lat = rb.build_circle(4, "trivial")
    # J jumps by -1 between sites 1 and 2
    j = rb.SymmetryData(
        1, +1, rb.pointwise(lambda c: np.array([[1.0 if c[0] < 2.0 else -1.0]]))
    )
    a = rb.LocalConnectionForm(np.zeros((lat.n_links, 1, 1), dtype=complex))
    with pytest.raises(BranchCutError) as got:
        rb.j_conjugate_connection(a, j, lat)
    with pytest.raises(BranchCutError) as want:
        ref.j_conjugate_connection(a, j, lat)
    assert str(got.value) == str(want.value)


def test_average_connection_rejects_rank_mismatch():
    lat = rb.build_circle(8, "trivial")
    a = rb.LocalConnectionForm(np.zeros((8, 2, 2), dtype=complex))
    with pytest.raises(DomainError):
        rb.average_connection(a, rb.SymmetryData.identity(1), lat)


def test_mobius_connection_equivariant_on_lattice():
    lat = rb.build_circle(32, "trivial")
    spec = rb.model_mobius_circle()
    u = rb.link_field_from_connection(spec, lat)
    w = rb.SewingField(spec.j(lat.sites), +1, 0.0)
    assert rb.equivariance_residual(u, w, lat) <= 1e-12


def test_kramers_pair_is_equivariant_without_a_twist():
    # odd time reversal J = i sigma_y (x) 1 on the antipodal circle, rank 2:
    # W = Psi(tau x)^dag J conj(Psi(x)) makes the plain relation a change of
    # frame, so a symplectic twist keyed on the sewing field's parity fails
    sy = np.array([[0, -1j], [1j, 0]])
    jm = np.kron(1j * sy, np.eye(2))
    rng = np.random.default_rng(7)
    terms = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    terms = 0.3 * (terms + terms.conj().swapaxes(1, 2))
    shift = np.kron(np.eye(2), np.diag([-3.0, 3.0]))

    def h0(t):
        cos, sin = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        return terms[0] + cos * terms[1] + sin * terms[2] + shift

    def evaluate(coords):
        t = coords[:, 0]
        return 0.5 * (h0(t) + jm @ h0(t + np.pi).conj() @ jm.conj().T)

    lat = rb.build_circle(32, "antipodal")
    h = rb.HamiltonianFamily(4, evaluate, "kramers")
    j = rb.SymmetryData.constant(jm, -1, "i sigma_y")
    assert rb.verify_hamiltonian_symmetry(h, j, lat).symmetric
    s = rb.eigensolve_family(h, lat, [0, 1])
    f = rb.frame_from_projection(rb.select_projection(s, [0, 1]))
    u = rb.link_field(f, lat)
    w = rb.sewing_matrix(f, j, lat)
    assert w.parity == -1
    assert rb.equivariance_residual(u, w, lat) <= 1e-12
