"""The spectral kernel's matrix functions against scipy's per-matrix ones.

`principal_log_unitaries` takes one eigendecomposition of the whole stack;
tests/loop_reference.py keeps the per-matrix eigvals + scipy.linalg.logm
version.  They must agree to 1e-12 with exp(log U) = U to 1e-13, including
on exact and near degeneracies and close to (but outside) the branch cut,
and the branch-cut error must name the same entry.  The exponential and the
principal square root come from the same kernel and must match
scipy.linalg.expm / sqrtm to 1e-12; rank one keeps its exact bits.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import loop_reference as ref
from realbloch._matrix import (
    adjoint,
    expms,
    frob_each,
    max_frob,
    principal_log_unitaries,
    spectral_maps,
)
from realbloch.errors import BranchCutError, ModelError

TOL = 1e-12
EXP_TOL = 1e-13


def haar_unitary(rng, m):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(q, angles):
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def cases(rng, m):
    """Named unitary stacks of rank m."""
    randoms = np.stack([haar_unitary(rng, m) for _ in range(8)])
    angles = rng.uniform(-3.0, 3.0, size=m)
    cluster = angles.copy()
    cluster[min(1, m - 1)] = cluster[0] + 1e-13
    near_cut = angles.copy()
    near_cut[-1] = np.pi - 1e-6  # |lambda + 1| ~ 1e-6, outside the 1e-9 guard
    q = haar_unitary(rng, m)
    return {
        "random": randoms,
        "identity": np.eye(m, dtype=complex)[None],
        "cluster-1e-13": with_spectrum(q, cluster)[None],
        "near-cut-1e-6": with_spectrum(q, near_cut)[None],
    }


def expm_defect(logs, u):
    return max(
        float(np.linalg.norm(scipy.linalg.expm(a) - b)) for a, b in zip(logs, u)
    )


@pytest.mark.parametrize("m", [2, 3, 4])
def test_batched_log_matches_logm(m):
    rng = np.random.default_rng(100 + m)
    for name, u in cases(rng, m).items():
        logs = principal_log_unitaries(u)
        want = np.stack([ref.principal_log_unitary(x) for x in u])
        assert np.max(np.abs(logs - want)) <= TOL, name
        assert expm_defect(logs, u) <= EXP_TOL, name


@pytest.mark.parametrize("m", [1, 2, 3])
def test_branch_cut_names_third_entry(m):
    rng = np.random.default_rng(7)
    u = np.stack([haar_unitary(rng, m) for _ in range(5)])
    angles = np.full(m, 0.5)
    angles[0] = np.pi - 1e-10  # |lambda + 1| ~ 1e-10, inside the guard
    u[2] = with_spectrum(haar_unitary(rng, m), angles)
    with pytest.raises(BranchCutError) as got:
        principal_log_unitaries(u, what="plaquette")
    with pytest.raises(BranchCutError) as want:
        for i, x in enumerate(u):
            ref.principal_log_unitary(x, what=f"plaquette {i}")
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("plaquette 2: eigenvalue at -1 within 1e-09")


# -- exponential and square root ------------------------------------------------


def principal_sqrt(z):
    """The scalar map fixed_loop_holonomies hands the kernel."""
    return np.exp(0.5j * np.angle(z))


def exponent_cases(rng, m):
    """Named anti-Hermitian stacks of rank m."""
    z = rng.normal(size=(8, m, m)) + 1j * rng.normal(size=(8, m, m))
    angles = rng.uniform(-3.0, 3.0, size=m)
    angles[min(1, m - 1)] = angles[0] + 1e-13
    q = haar_unitary(rng, m)
    return {
        "random": 0.5 * (z - adjoint(z)),
        "zero": np.zeros((1, m, m), dtype=complex),  # exp is the identity
        "cluster-1e-13": ((q * 1j * angles) @ q.conj().T)[None],
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_batched_exp_matches_expm(m):
    rng = np.random.default_rng(200 + m)
    for name, a in exponent_cases(rng, m).items():
        want = np.stack([scipy.linalg.expm(x) for x in a])
        assert np.max(np.abs(expms(a) - want)) <= TOL, name


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kernel_sqrt_matches_sqrtm(m):
    rng = np.random.default_rng(300 + m)
    for name, u in cases(rng, m).items():
        roots, _ = spectral_maps(u, principal_sqrt)
        want = np.stack([scipy.linalg.sqrtm(x) for x in u])
        assert np.max(np.abs(roots - want)) <= TOL, name
    # a symmetric unitary W = O diag(e^(i angles)) O^T has the symmetric
    # principal root g with g g^T = W (a Takagi factor)
    o, _ = np.linalg.qr(rng.normal(size=(m, m)))
    w = with_spectrum(o.astype(complex), rng.uniform(-3.0, 3.0, size=m))
    (g,), _ = spectral_maps(w[None], principal_sqrt)
    assert np.max(np.abs(g - g.T)) <= TOL
    assert np.max(np.abs(g @ g.T - w)) <= TOL


def test_rank_one_keeps_its_bits():
    rng = np.random.default_rng(11)
    a = 1j * rng.normal(size=(64, 1, 1))
    assert expms(a).tobytes() == scipy.linalg.expm(a).tobytes()
    assert expms(a).tobytes() == np.exp(a).tobytes()
    z = np.exp(1j * rng.uniform(-3.0, 3.0, size=64))
    u = z[:, None, None]
    per_scalar = np.array([[[1j * np.angle(x)]] for x in z])
    assert principal_log_unitaries(u).tobytes() == per_scalar.tobytes()
    roots, w = spectral_maps(u, principal_sqrt)
    per_scalar = np.array([[[np.exp(0.5j * np.angle(x))]] for x in z])
    assert roots.tobytes() == per_scalar.tobytes()
    assert w.tobytes() == u[:, :, 0].tobytes()
    # scipy's 1 x 1 sqrtm is np.sqrt, which can differ in the last bit
    assert np.max(np.abs(roots - scipy.linalg.sqrtm(u))) <= 1e-15


@pytest.mark.parametrize("m", [1, 2, 3])
def test_empty_stacks(m):
    empty = np.zeros((0, m, m), dtype=complex)
    assert expms(empty).shape == (0, m, m)
    assert principal_log_unitaries(empty).shape == (0, m, m)
    roots, w = spectral_maps(empty, principal_sqrt)
    assert roots.shape == (0, m, m) and w.shape == (0, m)


def test_exp_of_non_antihermitian_step_raises():
    rng = np.random.default_rng(3)
    a = exponent_cases(rng, 2)["random"][:4]
    expms(a + 1e-14 * np.eye(2))  # inside the relative 1e-12 bound
    a[2, 0, 1] += 1e-9  # eigh would read one triangle and miss this
    with pytest.raises(ModelError) as err:
        expms(a)
    assert str(err.value) == "exponent 2 is not anti-Hermitian"
    # rank one: the same guard, so an exponent must be imaginary
    a = 1j * np.linspace(-3.0, 3.0, 5)[:, None, None]
    expms(a + 1e-14)
    a[3] = 0.3 + 0.5j  # its exponential has modulus 1.35
    with pytest.raises(ModelError) as err:
        expms(a)
    assert str(err.value) == "exponent 3 is not anti-Hermitian"


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, complex(0, np.nan), complex(0, np.inf)]
)
def test_exp_of_non_finite_exponent_raises(m, value):
    a = np.zeros((4, m, m), dtype=complex)
    a[2, 0, m - 1] = value
    a[2, m - 1, 0] = -np.conj(value)  # anti-Hermitian but for the non-finite part
    with pytest.raises(ModelError) as err:
        expms(a)
    assert str(err.value) == "exponent 2 is not anti-Hermitian"


EPS = np.finfo(float).eps


def test_frob_each_edge_cases():
    rng = np.random.default_rng(8)
    # empty stacks
    assert frob_each(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)
    assert np.array_equal(frob_each(np.zeros((4, 0, 0))), np.zeros(4))
    assert max_frob(np.zeros((0, 2, 2), dtype=complex)) == 0.0
    # relative agreement with numpy's norm: complex and real, any batch shape
    for shape in [(5, 1, 1), (7, 2, 2), (3, 8, 8), (2, 40, 40), (2, 3, 4, 5)]:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for stack in (a, a.real, 1e-100 * a, 1e100 * a):
            want = np.linalg.norm(stack, axis=(-2, -1))
            assert frob_each(stack).shape == want.shape
            assert np.all(np.abs(frob_each(stack) - want) <= 4 * EPS * want)
    # non-contiguous views: transposes, gathers, strides, real and imaginary parts
    a = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    views = (a.swapaxes(1, 2), a[[4, 0, 4, 2]], a[:, ::2, 1:], a[::-1], a.real, a.imag)
    for view in views:
        want = np.linalg.norm(view, axis=(-2, -1))
        assert np.all(np.abs(frob_each(view) - want) <= 4 * EPS * want)
    ints = np.arange(8).reshape(2, 2, 2)
    assert np.array_equal(frob_each(ints), [np.sqrt(14), np.sqrt(126)])
    # NaN and infinity propagate, at rank one (|z|) too
    for value, check in (
        (np.nan, np.isnan),
        (np.inf, np.isposinf),
        (-np.inf, np.isposinf),
        (complex(0, np.nan), np.isnan),
        (complex(np.inf, np.nan), lambda x: not np.isfinite(x)),
    ):
        for b in (a.copy(), a[:, 1:2, 2:3].copy()):
            b[3, -1, -1] = value
            got = frob_each(b)
            assert check(got[3]) and np.all(np.isfinite(np.delete(got, 3)))
            assert check(max_frob(b))


# -- property test ---------------------------------------------------------------

MARGIN = 1e-6  # keeps sampled eigenvalues outside the branch-cut guard


@st.composite
def unitary_pairs(draw):
    """A unitary U with a drawn spectrum and a random unitary V, same rank."""
    m = draw(st.integers(1, 4))
    entries = hnp.arrays(np.float64, (2, m, m, 2), elements=st.floats(-1.0, 1.0))
    z = draw(entries)
    q, _ = np.linalg.qr(z[0, ..., 0] + 1j * z[0, ..., 1])
    v, _ = np.linalg.qr(z[1, ..., 0] + 1j * z[1, ..., 1])
    angles = draw(
        st.lists(
            st.floats(-np.pi + MARGIN, np.pi - MARGIN), min_size=m, max_size=m
        )
    )
    return with_spectrum(q, angles), v


def log_condition(u):
    """Condition number of the principal log at a normal U: the largest
    divided difference |log l_i - log l_j| / |l_i - l_j| over its
    eigenvalue pairs (1 / |l| on the diagonal, so 1 for a unitary).  Two
    eigenvalues on either side of the cut at -1 make it about
    2 pi / |l_i - l_j|."""
    lam = np.linalg.eigvals(u)
    logs = 1j * np.angle(lam)
    dl, dlog = lam[:, None] - lam[None, :], logs[:, None] - logs[None, :]
    ratio = np.abs(dlog) / np.where(dl == 0, 1.0, np.abs(dl))
    return max(1.0, float(ratio.max()))


def cut_straddling_pair(angles, seed):
    """A drawn-style pair whose U has eigenvalues on both sides of the cut."""
    rng = np.random.default_rng(seed)
    m = len(angles)
    return with_spectrum(haar_unitary(rng, m), angles), haar_unitary(rng, m)


@settings(max_examples=150, deadline=None, database=None)
@given(unitary_pairs())
@example(cut_straddling_pair([3.14159, -3.14062, 0.5, 1.0], 1))
@example(cut_straddling_pair([np.pi - MARGIN, -np.pi + MARGIN, 0.2], 2))
def test_log_properties(pair):
    u, v = pair
    (a,) = principal_log_unitaries(u[None])
    assert np.array_equal(a, -adjoint(a))
    spectrum = np.linalg.eigvals(a)
    assert np.all(np.abs(spectrum.imag) < np.pi)
    assert np.linalg.norm(scipy.linalg.expm(a) - u) <= EXP_TOL
    # conjugation commutes with the log only as well as the log is
    # conditioned: a rounding-level change of V U V^dag moves its log by up
    # to log_condition times as much
    (b,) = principal_log_unitaries((v @ u @ v.conj().T)[None])
    assert np.max(np.abs(b - v @ a @ v.conj().T)) <= TOL * log_condition(u)
