"""Property tests of the bundle invariants on random smooth symmetric families.

A family is H = (H0 + J conj(H0 o tau) J^dag) / 2 for a random degree-one
H0 (affine in the sphere embedding, or a first-order trigonometric
polynomial on the torus) and a random constant J = U U^T, so J conj(J) = 1
and the family is Real.  A diagonal shift puts the lowest m bands below the
rest at the constant term; the coupling is of the same size, so about a
third of the draws carry a nonzero Chern number.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import realbloch as rb

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


def symmetric_family(base, n, m, rng, shift=0.0):
    """A random Real family of dimension n whose lowest m bands are meant to
    be isolated, plus `shift` times the identity."""
    flip = np.array(BASES[base][1])
    k = features(base, np.zeros((1, 2))).shape[1]
    a = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    a = 0.5 * (a + a.conj().swapaxes(1, 2))
    a[0] += np.diag(np.where(np.arange(n) < m, -1.0, 1.0) + shift)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    jm = u @ u.T

    def h0(coords):
        return np.einsum("nk,kij->nij", features(base, coords), a)

    def evaluate(coords):
        return 0.5 * (h0(coords) + jm @ h0(coords * flip).conj() @ jm.conj().T)

    h = rb.HamiltonianFamily(n, evaluate, f"random-{base}-{n}")
    return h, rb.SymmetryData.constant(jm, +1, "U U^T")


def invariants(bundle):
    """(Chern value, rounded Chern number, fixed-loop det-signs)."""
    assert bundle.symmetry.symmetric
    value, rounded = bundle.chern
    return value, rounded, [rec.sign for rec in bundle.fixed_loops]


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
        return rb.Frame(rb.frame_from_projection(p).columns @ g, lat, "random")

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
    value, rounded = rb.RealBundle(h, j, lat, list(range(m))).chern
    flipped = rb.RealBundle(h, j, lat.with_reversed_orientation(), list(range(m)))
    value_r, rounded_r = flipped.chern
    assert abs(value_r + value) <= TOL
    assert rounded_r == -rounded


@settings(max_examples=30, deadline=None)
@given(m1=st.sampled_from([1, 2]), **draws)
def test_whitney_sum_adds_chern_and_multiplies_signs(base, n, m, seed, m1):
    # the dense 3 x 3 summand makes the sum's blocks two sectors, not both
    # tridiagonal, so each block takes one eigh of the whole stack; the
    # second summand sits 50 higher, so the sum keeps bands 0..m1 - 1 of
    # the first and 3..3 + m - 1 of the second
    rng = np.random.default_rng(seed)
    pair1 = symmetric_family(base, 3, m1, rng)
    pair2 = symmetric_family(base, n, m, rng, shift=50.0)
    lat = BASES[base][0]()
    h, j = rb.direct_sum_hamiltonians(pair1, pair2)
    bands = list(range(m1)) + [3 + b for b in range(m)]
    total = rb.RealBundle(h, j, lat, bands)
    assert total.spectra.eigenvalues.tobytes() == (
        np.linalg.eigh(h(lat.sites))[0].tobytes()
    )
    value1, rounded1, signs1 = invariants(rb.RealBundle(*pair1, lat, list(range(m1))))
    value2, rounded2, signs2 = invariants(rb.RealBundle(*pair2, lat, list(range(m))))
    value, rounded, signs = invariants(total)
    assert abs(value - (value1 + value2)) <= TOL
    assert rounded == rounded1 + rounded2
    assert signs == [a * b for a, b in zip(signs1, signs2)]
