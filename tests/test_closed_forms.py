"""The 2 x 2 closed forms of `_matrix` against LAPACK.

At rank two `eighs` (Hermitian eigenpairs), `polar_unitaries` (polar
factors and smallest singular values) and `spectral_maps` (f of a
non-Hermitian stack) skip LAPACK.  Each must match numpy's eigh, svd and
eig / inv to roundoff on random stacks, on b = 0 and exactly scalar
matrices, on rank-deficient overlaps and next to the branch cut, and a NaN
or infinite entry must fail the same guard, naming the same first entry, as
it does at rank one.  Rank three keeps LAPACK's bits.
"""

import numpy as np
import pytest

import realbloch as rb
from realbloch._matrix import (
    BRANCH_CUT_GUARD,
    adjoint,
    eighs,
    frob_each,
    max_frob,
    polar_unitaries,
    principal_log_unitaries,
    spectral_maps,
    unitary_logs,
)
from realbloch.errors import BranchCutError, DiscretizationError

EPS = np.finfo(float).eps
TOL = 1e-13


def random_stack(rng, n, m=2):
    return rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))


def haar_unitaries(rng, n, m=2):
    q, r = np.linalg.qr(random_stack(rng, n, m))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def with_spectra(q, w):
    """Q diag(w) Q^dag for a unitary stack q and eigenvalues w (n, m)."""
    return (q * w[:, None, :]) @ adjoint(q)


# -- Hermitian eigenpairs ------------------------------------------------------


def hermitian_cases(rng):
    z = random_stack(rng, 64)
    diagonal = np.zeros((4, 2, 2), dtype=complex)
    diagonal[:, [0, 1], [0, 1]] = [[2.0, -1.0], [-1.0, 2.0], [0.0, 0.0], [1e-300, 0]]
    scalar = np.eye(2, dtype=complex) * np.array([0.0, 1.0, -3.5])[:, None, None]
    poles = np.array([[[1.0, 0], [0, -1.0]], [[-1.0, 0], [0, 1.0]]], dtype=complex)
    return {
        "random": 0.5 * (z + adjoint(z)),
        "real": 0.5 * (z + adjoint(z)).real,
        "b = 0": diagonal,
        "scalar": scalar,
        "poles": poles,  # the degree-k sphere's d . sigma at theta = 0, pi
        "huge and tiny": np.array([[[1e150, 1e-150], [1e-150, -1e150]]]),
    }


@pytest.mark.parametrize("name", sorted(hermitian_cases(np.random.default_rng(0))))
def test_eighs_matches_lapack(name):
    h = hermitian_cases(np.random.default_rng(1))[name]
    w, v = eighs(h)
    want_w, want_v = np.linalg.eigh(h)
    scale = np.abs(h).max(axis=(1, 2))[:, None]  # frob_each underflows at 1e-300
    assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
    assert np.all(np.abs(w - want_w) <= 4 * EPS * scale)
    assert np.all(w[:, 0] <= w[:, 1])
    assert max_frob(adjoint(v) @ v - np.eye(2)) <= 4 * EPS
    residual = np.abs(h @ v - v * w[:, None, :]).max(axis=(1, 2))
    assert np.all(residual <= 4 * EPS * scale[:, 0])
    # a split spectrum fixes each column up to a phase: the projectors agree
    split = w[:, 1] - w[:, 0] > 1e-8 * scale[:, 0]  # the scalar cases are not
    low, want_low = v[split, :, :1], want_v[split, :, :1]
    assert max_frob(low @ adjoint(low) - want_low @ adjoint(want_low)) <= 8 * EPS


def test_eighs_identity_columns_where_lapack_keeps_them():
    # a scalar block (p = q, b = 0) keeps the identity columns, as LAPACK
    # does, with no 0/0
    h = np.eye(2, dtype=complex) * np.array([0.0, 2.0, -1.0])[:, None, None]
    w, v = eighs(h)
    assert np.array_equal(v, np.broadcast_to(np.eye(2), v.shape))
    assert np.array_equal(v, np.linalg.eigh(h)[1])
    assert np.array_equal(w, np.linalg.eigh(h)[0])


def test_eighs_reads_the_lower_triangle():
    # as LAPACK with UPLO='L': the strict upper triangle is never read
    rng = np.random.default_rng(2)
    z = random_stack(rng, 8)
    h = 0.5 * (z + adjoint(z))
    junk = h.copy()
    junk[:, 0, 1] = np.nan
    for got, want in zip(eighs(junk), eighs(h)):
        assert got.tobytes() == want.tobytes()


def test_eighs_keeps_lapack_above_rank_two():
    rng = np.random.default_rng(3)
    z = random_stack(rng, 16, 3)
    h = 0.5 * (z + adjoint(z))
    for got, want in zip(eighs(h), np.linalg.eigh(h)):
        assert got.tobytes() == want.tobytes()


def test_two_band_sphere_spectrum_matches_lapack():
    # the dense branch of eigensolve_family on the degree-k sphere
    lat = rb.build_sphere2(24, 32)
    h, _ = rb.model_degree_k_sphere(3)
    s = rb.eigensolve_family(h, lat)
    stack = h(lat.sites)
    want_w, want_v = np.linalg.eigh(stack)
    assert np.max(np.abs(s.eigenvalues - want_w)) <= 8 * EPS
    for b in (0, 1):
        got, want = s.eigenvectors[:, :, b : b + 1], want_v[:, :, b : b + 1]
        assert max_frob(got @ adjoint(got) - want @ adjoint(want)) <= 8 * EPS


# -- polar factors -------------------------------------------------------------


def polar_cases(rng):
    a = random_stack(rng, 64)
    deficient = a.copy()
    deficient[:, :, 1] = (0.3 - 0.7j) * deficient[:, :, 0]  # det = 0 up to roundoff
    exact = np.array([[[1.0, 2.0], [0.5, 1.0]], [[0, 0], [1j, 0]], [[0, 0], [0, 0]]])
    scalar = np.eye(2) * np.array([1.0, -2.0, 0.5j])[:, None, None]
    return {
        "random": a,
        "rank one": deficient,
        "det exactly 0": exact.astype(complex),
        "scalar": scalar,
        "unitary": haar_unitaries(rng, 16),
        "near singular": (haar_unitaries(rng, 8) * [1, 1e-9]) @ haar_unitaries(rng, 8),
    }


@pytest.mark.parametrize("name", sorted(polar_cases(np.random.default_rng(0))))
def test_polar_matches_svd(name):
    a = polar_cases(np.random.default_rng(4))[name]
    u, smin = polar_unitaries(a)
    left, s, right = np.linalg.svd(a)
    scale = np.maximum(s[:, 0], np.finfo(float).tiny)
    assert np.all(np.abs(smin - s[:, -1]) <= 4 * EPS * scale)
    assert max_frob(adjoint(u) @ u - np.eye(2)) <= 4 * EPS
    # U^dag A is the Hermitian positive semidefinite factor
    p = adjoint(u) @ a
    assert np.all(frob_each(p - adjoint(p)) <= 8 * EPS * scale)
    assert np.all(np.linalg.eigvalsh(0.5 * (p + adjoint(p)))[:, 0] >= -8 * EPS * scale)
    # the factor is unique where A is invertible
    regular = s[:, -1] > 1e-6 * scale
    assert max_frob((u - left @ right)[regular]) <= TOL


def test_polar_of_zero_is_the_identity():
    u, smin = polar_unitaries(np.zeros((2, 2, 2), dtype=complex))
    assert np.array_equal(u, np.broadcast_to(np.eye(2), u.shape))
    assert np.array_equal(smin, [0.0, 0.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_polar_of_non_finite_entry_has_nan_smin(value):
    a = haar_unitaries(np.random.default_rng(5), 6)
    a[3, 1, 0] = value
    _, smin = polar_unitaries(a)
    assert np.isnan(smin[3]) and np.all(np.isfinite(np.delete(smin, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("m", [1, 2])
def test_non_finite_frame_names_the_same_link_at_ranks_one_and_two(m, value):
    # the rank-two overlap fails link_field's ~(smin > tol) guard on the same
    # first link as rank one (the SVD raised LinAlgError on a NaN instead)
    lat = rb.build_circle(8, "trivial")
    cols = np.zeros((8, 3, m), dtype=complex)
    cols[:, :m, :] = np.eye(m)
    cols[5, 0, 0] = value
    frame = rb.Frame(cols)
    # the overlap's complex products inf * 0 are NaN
    with np.errstate(invalid="ignore"):
        with pytest.raises(DiscretizationError, match="on link 4 "):
            rb.link_field(frame, lat)


# -- f of a non-Hermitian stack --------------------------------------------------


def log(w):
    return 1j * np.angle(w)


def lapack_maps(a, f):
    w, v = np.linalg.eig(a)
    return (v * f(w)[:, None, :]) @ np.linalg.inv(v), w


def unitary_cases(rng):
    q = haar_unitaries(rng, 16)
    phases = np.exp(1j * rng.uniform(-3.0, 3.0, size=(16, 2)))
    split = 10.0 ** -np.arange(6.0, 10.0)  # eigenvalue splittings 1e-6 to 1e-9
    near = np.exp(1j * np.stack([np.full(4, 0.3), 0.3 + split], 1))
    return {
        "random": haar_unitaries(rng, 64),
        "near identity": with_spectra(q, np.exp(1e-7j * rng.normal(size=(16, 2)))),
        "near degenerate": with_spectra(q[:4], near),
        "scalar": np.eye(2) * phases[:, :1, None],
        "spectra": with_spectra(q, phases),
    }


@pytest.mark.parametrize("name", sorted(unitary_cases(np.random.default_rng(0))))
def test_maps_match_eig(name):
    u = unitary_cases(np.random.default_rng(6))[name]
    got, w = spectral_maps(u, log)
    want, want_w = lapack_maps(u, log)
    assert np.max(np.abs(got - want)) <= TOL
    # the same spectrum, in either order
    assert np.max(np.abs(np.sort_complex(w) - np.sort_complex(want_w))) <= TOL
    roots, _ = spectral_maps(u, lambda z: np.exp(0.5j * np.angle(z)))
    assert np.max(np.abs(roots @ roots - u)) <= TOL


def test_maps_of_a_scalar_matrix_are_exact():
    # B = 0 and mu = 0: f(A) = f(m) 1, with no 0/0
    z = np.exp(1j * np.array([0.0, 1.0, -2.5, np.pi / 2]))
    u = np.eye(2) * z[:, None, None]
    got, w = spectral_maps(u, log)
    assert np.array_equal(got, np.eye(2) * log(z)[:, None, None])
    assert np.array_equal(w, np.stack([z, z], 1))


@pytest.mark.parametrize("distance", [1e-10, 1e-8])
def test_branch_cut_flags_match_eig(distance):
    # eigenvalues 1e-10 (inside the 1e-9 guard) and 1e-8 (outside) from -1
    rng = np.random.default_rng(7)
    q = haar_unitaries(rng, 8)
    w = np.exp(1j * rng.uniform(-3.0, 3.0, size=(8, 2)))
    w[2, 0] = -np.exp(1j * distance)
    w[5, 1] = -np.exp(-1j * distance)
    u = with_spectra(q, w)
    logs, cut = unitary_logs(u)
    want = (np.abs(np.linalg.eigvals(u) + 1.0) < BRANCH_CUT_GUARD).any(axis=1)
    assert np.array_equal(cut, want)
    assert cut[[2, 5]].all() == (distance < BRANCH_CUT_GUARD)
    want_logs, _ = lapack_maps(u[~cut], log)
    assert np.max(np.abs(logs - 0.5 * (want_logs - adjoint(want_logs)))) <= 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.inf)])
def test_non_finite_entry_keeps_the_first_cut_at_ranks_one_and_two(value):
    # the branch-cut error names the same first entry at ranks one and two,
    # past a non-finite entry ahead of it (eig rejected the whole stack)
    for m in (1, 2):
        u = np.tile(np.eye(m, dtype=complex), (6, 1, 1))
        u[1, 0, 0] = value
        u[4, 0, 0] = -1.0
        with pytest.raises(BranchCutError, match="^plaquette 4: eigenvalue at -1"):
            principal_log_unitaries(u, what="plaquette")


def test_maps_keep_lapack_above_rank_two():
    u = haar_unitaries(np.random.default_rng(8), 8, 3)
    got, w = spectral_maps(u, log)
    want, want_w = lapack_maps(u, log)
    assert got.tobytes() == want.tobytes() and w.tobytes() == want_w.tobytes()
