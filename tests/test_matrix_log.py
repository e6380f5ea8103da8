"""The batched unitary logarithm against scipy's per-matrix logm.

`principal_log_unitaries` takes one eigendecomposition of the whole stack;
tests/loop_reference.py keeps the per-matrix eigvals + scipy.linalg.logm
version.  They must agree to 1e-12 with exp(log U) = U to 1e-13, including
on exact and near degeneracies and close to (but outside) the branch cut,
and the branch-cut error must name the same entry.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import loop_reference as ref
from realbloch._matrix import adjoint, principal_log_unitaries
from realbloch.errors import BranchCutError

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
    cluster[1] = cluster[0] + 1e-13
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


@settings(max_examples=150, deadline=None, database=None)
@given(unitary_pairs())
def test_log_properties(pair):
    u, v = pair
    (a,) = principal_log_unitaries(u[None])
    assert np.array_equal(a, -adjoint(a))
    spectrum = np.linalg.eigvals(a)
    assert np.all(np.abs(spectrum.imag) < np.pi)
    assert np.linalg.norm(scipy.linalg.expm(a) - u) <= EXP_TOL
    (b,) = principal_log_unitaries((v @ u @ v.conj().T)[None])
    assert np.max(np.abs(b - v @ a @ v.conj().T)) <= TOL
