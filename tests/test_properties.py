"""Property tests of the bundle invariants on random smooth symmetric families.

A family is H = (H0 + J conj(H0 o tau) J^dag) / 2 for a random degree-one
H0 (affine in the sphere embedding, or a first-order trigonometric
polynomial on the torus) and a random constant J = U U^T, so J conj(J) = 1
and the family is Real.  A diagonal shift puts the lowest m bands below the
rest at the constant term; the coupling is of the same size, so about a
third of the draws carry a nonzero Chern number.  Product bundles over the
eta torus (see product_spec) draw a Real connection and J instead.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
import realbloch as rb
from conftest import assert_bundle_mirrors

# lattice builder and the involution as a sign flip of the coordinates
BASES = {
    "sphere": (lambda: rb.build_sphere2(8, 12), (1.0, -1.0)),
    "eta": (lambda: rb.build_torus2(10, 10, "eta"), (1.0, -1.0)),
    "eta1": (lambda: rb.build_torus2(10, 10, "eta1"), (-1.0, 1.0)),
}
TOL = 1e-12

draws = dict(
    base=st.sampled_from(sorted(BASES)),
    n=st.sampled_from([3, 4]),
    m=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)


def features(base, coords):
    """Degree-one functions of the base: 1 and the embedding of the sphere,
    1, cos and sin of each angle of the torus, as (n, K) columns."""
    if base == "sphere":
        x = rb.sphere_embedding(coords)
        return np.concatenate([np.ones((len(coords), 1)), x], axis=1)
    t1, t2 = coords[:, 0], coords[:, 1]
    one = np.ones_like(t1)
    return np.stack([one, np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)], axis=1)


def symmetric_family(base, n, m, rng, shift=0.0, real=False):
    """A random Real family of dimension n whose lowest m bands are meant to
    be isolated, plus `shift` times the identity; J = 1 when `real`."""
    flip = np.array(BASES[base][1])
    k = features(base, np.zeros((1, 2))).shape[1]
    a = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    a[0] += np.diag(np.where(np.arange(n) < m, -1.0, 1.0) + shift)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    jm = np.eye(n) if real else u @ u.T

    def h0(coords):
        return np.einsum("nk,kij->nij", features(base, coords), a)

    def evaluate(coords):
        return 0.5 * (h0(coords) + jm @ h0(coords * flip).conj() @ jm.conj().T)

    h = rb.HamiltonianFamily(n, evaluate, f"random-{base}-{n}")
    return h, rb.SymmetryData.constant(jm, +1, "U U^T")


def invariants(bundle):
    """(Chern value, rounded Chern number, fixed-loop det-signs), checking
    the parity identity: the signs multiply to (-1)^C."""
    assert bundle.symmetry.symmetric
    value, rounded = bundle.chern
    signs = [rec.sign for rec in bundle.fixed_loops]
    assert np.prod(signs) == (-1) ** (rounded % 2), (signs, rounded)
    return value, rounded, signs


def random_unitaries(rng, count, m):
    z = rng.normal(size=(count, m, m)) + 1j * rng.normal(size=(count, m, m))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


@settings(max_examples=40, deadline=None)
@given(**draws)
def test_site_gauges_leave_chern_and_signs(base, n, m, seed):
    rng = np.random.default_rng(seed)
    h, j = symmetric_family(base, n, m, rng)
    lat = BASES[base][0]()
    g = random_unitaries(rng, lat.n_sites, m)

    def gauged(p):
        return rb.Frame(rb.frame_from_projection(p).columns @ g)

    value, rounded, signs = invariants(rb.RealBundle(h, j, lat, list(range(m))))
    bundle = rb.RealBundle(h, j, lat, list(range(m)), frame_rule=gauged)
    value_g, rounded_g, signs_g = invariants(bundle)
    assert abs(value_g - value) <= TOL
    assert (rounded_g, signs_g) == (rounded, signs)


@settings(max_examples=40, deadline=None)
@given(**draws)
def test_reversed_orientation_flips_chern(base, n, m, seed):
    h, j = symmetric_family(base, n, m, np.random.default_rng(seed))
    lat = BASES[base][0]()
    value, rounded, _ = invariants(rb.RealBundle(h, j, lat, list(range(m))))
    flipped = rb.RealBundle(h, j, lat.with_reversed_orientation(), list(range(m)))
    value_r, rounded_r, _ = invariants(flipped)
    assert abs(value_r + value) <= TOL
    assert rounded_r == -rounded


@settings(max_examples=30, deadline=None)
@given(m1=st.sampled_from([1, 2]), **draws)
def test_whitney_sum_adds_chern_and_multiplies_signs(base, n, m, seed, m1):
    # the dense 3 x 3 summand makes the sum's blocks two sectors, not both
    # tridiagonal, so each block takes one eigh of its representatives' stack
    # (of the whole stack unless it is mirrored); the second summand sits 50
    # higher, so the sum keeps bands 0..m1 - 1 of the first and
    # 3..3 + m - 1 of the second
    rng = np.random.default_rng(seed)
    pair1 = symmetric_family(base, 3, m1, rng)
    pair2 = symmetric_family(base, n, m, rng, shift=50.0)
    lat = BASES[base][0]()
    h, j = rb.direct_sum_hamiltonians(pair1, pair2)
    bands = list(range(m1)) + [3 + b for b in range(m)]
    total = rb.RealBundle(h, j, lat, bands)
    got, want = total.spectra.eigenvalues, np.linalg.eigh(h(lat.sites))[0]
    tau = lat.involution
    rep = np.arange(lat.n_sites) <= tau
    assert got[rep].tobytes() == want[rep].tobytes()
    assert ((got == want).all(axis=1) | (got == got[tau]).all(axis=1)).all()
    value1, rounded1, signs1 = invariants(rb.RealBundle(*pair1, lat, list(range(m1))))
    value2, rounded2, signs2 = invariants(rb.RealBundle(*pair2, lat, list(range(m))))
    value, rounded, signs = invariants(total)
    assert abs(value - (value1 + value2)) <= TOL
    assert rounded == rounded1 + rounded2
    assert signs == [a * b for a, b in zip(signs1, signs2)]


@settings(max_examples=40, deadline=None)
@given(real=st.booleans(), **draws)
def test_mirrored_frames_keep_the_invariants(base, n, m, seed, real):
    # the eigensolve mirrors the tau-images of its blocks at roundoff, J
    # conj(V) of their representatives; the loop reference solves each site.
    # With J = 1 the mirrored frames are Real, and the links, plaquette
    # fluxes and sewing matrices at tau-images are written from their
    # representatives; the full bundle computes each of them
    h, j = symmetric_family(base, n, m, np.random.default_rng(seed), real=real)
    lat = BASES[base][0]()
    bundle = rb.RealBundle(h, j, lat, list(range(m)))
    full = rb.RealBundle(h, j, lat, list(range(m)))
    full.spectra = ref.eigensolve_family(h, lat)
    full.spectra.hamiltonian_residual = bundle.spectra.hamiltonian_residual
    full.mirrored = None  # every later layer computes every site
    image = np.flatnonzero(np.arange(lat.n_sites) > lat.involution)
    theta = j.matrix @ bundle.spectra.eigenvectors[lat.involution[image]].conj()
    assert np.array_equal(bundle.spectra.eigenvectors[image], theta)
    got, want = bundle.classify(), full.classify()
    assert (got.verdict, got.torsion) == (want.verdict, want.torsion)
    value, value_full = (r.diagnostics["chern_value"] for r in (got, want))
    assert abs(value - value_full) <= TOL
    assert (bundle.mirrored is not None) == real
    if real:
        assert bundle.mirrored[image].all()
        assert assert_bundle_mirrors(bundle) > 0
    flux, flux_full = (
        np.trace(x.curvature.f, axis1=1, axis2=2) for x in (bundle, full)
    )
    assert np.max(np.abs(flux - flux_full)) <= TOL
    traces = [rec.holonomy.trace.real for rec in bundle.fixed_loops]
    traces_full = [rec.holonomy.trace.real for rec in full.fixed_loops]
    assert np.allclose(traces, traces_full, rtol=0, atol=TOL)
    for key in ("sewing_unitarity", "projection_residual", "equivariance_residual"):
        assert got.diagnostics[key] <= TOL, key


def product_spec(m, twist, rng):
    """A random Real product bundle of rank m over the eta torus: J =
    e^{i twist theta1} U U^T, and A = (B + J conj(tau^* B) J^dag) / 2 for a
    random degree-one anti-Hermitian B, plus -i twist / 2 dtheta1 (the
    Mobius pullback's connection) when J twists."""
    flip = np.array(BASES["eta"][1])
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    w = u @ u.T
    c = rng.normal(size=(5, 2, m, m)) + 1j * rng.normal(size=(5, 2, m, m))
    c = 0.25 * (c - c.conj().swapaxes(-1, -2))  # anti-Hermitian

    def b(coords):
        return np.einsum("nk,kdij->ndij", features("eta", coords), c)

    def connection(coords):
        # tau flips theta2, so the pullback flips A_2's sign
        mirrored = w @ b(coords * flip).conj() @ w.conj().T
        a = 0.5 * (b(coords) + flip[None, :, None, None] * mirrored)
        a[:, 0] -= 0.5j * twist * np.eye(m)
        return a

    def j(coords):
        phase = np.exp(1j * twist * coords[:, 0])
        return phase[:, None, None] * w

    sym = rb.SymmetryData(m, +1, j, f"twist-{twist}")
    return rb.ProductConnectionSpec(m, connection, sym, "torus2-eta", f"product-{m}")


spec_draws = st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([0, 1]))


@settings(max_examples=30, deadline=None)
@given(first=spec_draws, second=spec_draws, seed=st.integers(0, 2**32 - 1))
def test_whitney_sum_of_product_bundles_adds_chern_and_multiplies_signs(
    first, second, seed
):
    # direct_sum_specs sums connections and J block-diagonally: each
    # plaquette's flux trace adds, so the Chern values add (a product bundle
    # has Chern number 0), and the fixed-loop determinants multiply; a
    # summand's loops carry (-1)^(m twist), the class of its real subbundle
    rng = np.random.default_rng(seed)
    s1, s2 = product_spec(*first, rng), product_spec(*second, rng)
    lat = BASES["eta"][0]()
    parts = [rb.RealBundle(s, None, lat) for s in (s1, s2)]
    total = rb.RealBundle(rb.direct_sum_specs(s1, s2), None, lat)
    flux1, flux2, flux = (
        np.trace(b.curvature.f, axis1=1, axis2=2) for b in parts + [total])
    assert np.abs(flux - (flux1 + flux2)).max() <= TOL
    (r1, r2), r = (b.classify() for b in parts), total.classify()
    for (m, twist), part in zip((first, second), (r1, r2)):
        assert part.torsion == [(-1) ** (m * twist)] * 2
    value1, value2, value = (x.diagnostics["chern_value"] for x in (r1, r2, r))
    assert abs(value - (value1 + value2)) <= TOL
    assert r.free == [r1.free[0] + r2.free[0]] == [0]
    assert r.torsion == [a * b for a, b in zip(r1.torsion, r2.torsion)]


# -- affine families -----------------------------------------------------------

AFFINE_TORUS = rb.build_torus2(8, 8, "eta1")
# the terms' union pattern: every entry; one path; or the paths i, i + s,
# i + 2s, ... for s = 2, 3 (two or three tridiagonal sectors)
PATTERNS = {
    "dense": None, "tridiagonal": (0, 1), "sectors-2": (0, 2), "sectors-3": (0, 3)}


def affine_family(pattern, n, kinds, rng):
    """A random affine family (see HamiltonianFamily) on the eta1 torus.
    Per term, by kind: a real symmetric matrix with a coefficient even in
    theta1; an imaginary antisymmetric one with an odd coefficient, so that
    terms of these two kinds alone give a Real family with J = 1; or a
    complex Hermitian one with a generic coefficient.  The first term is
    real, so the union pattern holds the diagonal."""
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    steps = PATTERNS[pattern]
    mask = np.ones((n, n)) if steps is None else np.isin(gap, steps)
    terms, weights = [], []
    for kind in kinds:
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) if kind == "generic" else np.zeros((n, n))
        if kind == "odd":
            a, b = np.zeros((n, n)), a
        terms.append(0.5 * mask * ((a + a.T) + 1j * (b - b.T)))
        weights.append((kind, rng.normal(size=5)))

    def coefficients(coords):
        f = features("eta1", coords)  # 1, cos, sin of theta1, then theta2
        columns = []
        for kind, w in weights:
            if kind == "even":
                columns.append(f[:, [0, 1, 3, 4]] @ w[:4])
            elif kind == "odd":
                columns.append(f[:, 2] * (f[:, [0, 3, 4]] @ w[:3]))
            else:
                columns.append(f @ w)
        return np.stack(columns, axis=1)

    terms = np.array(terms)
    if not terms.imag.any() and rng.random() < 0.5:  # a real-dtype family
        terms = terms.real
    return rb.HamiltonianFamily(n, coefficients, f"affine-{pattern}", terms)


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.sampled_from(sorted(PATTERNS)),
    n=st.sampled_from([6, 7]),
    kinds=st.lists(st.sampled_from(["even", "odd", "generic"]), max_size=2),
    bands=st.sampled_from([[0], [0, 1], None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_affine_family_solves_as_its_stack(pattern, n, kinds, bands, seed):
    # the eigensolve reads an affine family's pattern entries from its terms
    # and forms a stack only for a dense eigh or a J other than 1; the same
    # matrices behind a plain evaluator give the same bits
    rng = np.random.default_rng(seed)
    h = affine_family(pattern, n, ["even"] + kinds, rng)
    plain = rb.HamiltonianFamily(n, h.__call__, h.name)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for j in (None, rb.SymmetryData.identity(n), rb.SymmetryData.constant(u @ u.T)):
        got, want = (
            rb.eigensolve_family(f, AFFINE_TORUS, bands, j) for f in (h, plain))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert np.float64(got.hamiltonian_residual).tobytes() == np.float64(
            want.hamiltonian_residual).tobytes()
