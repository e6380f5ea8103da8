"""Dense-matrix helpers used throughout the package.

Functions named in the plural act on stacks: arrays of shape (n, m, m)
holding one small matrix per site, link or plaquette.
"""

import numpy as np
import scipy.linalg

from .errors import BranchCutError


def frob(a) -> float:
    return float(np.linalg.norm(a))


def frob_each(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


def max_frob(a: np.ndarray) -> float:
    """Largest Frobenius norm in a stack; 0 for an empty stack."""
    return float(frob_each(a).max(initial=0.0))


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def polar_unitaries(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar unitary factors of a stack and each smallest singular value.

    Rank one takes the phase z/|z| directly, and 1 where z = 0 as the SVD
    does; an empty fiber has smallest singular value 0.
    """
    if a.shape[1:] == (1, 1):
        z = a[:, 0, 0]
        mag = np.abs(z)
        phase = np.ones_like(z)
        np.divide(z, mag, out=phase, where=mag > 0)
        return phase[:, None, None], mag
    u, s, vh = np.linalg.svd(a)
    smin = s[:, -1] if s.shape[-1] else np.zeros(a.shape[0])
    return u @ vh, smin


def unitary_logs(u: np.ndarray, *, guard: float = 1e-9):
    """Principal logarithms of a unitary stack, clear of the branch cut.

    Returns ``(logs, cut)``: ``cut`` marks the entries with an eigenvalue
    within `guard` of -1, where the principal branch is ambiguous, and
    ``logs`` holds the anti-Hermitized logarithms of the other entries in
    order.  Rank one is one vectorised np.angle; larger ranks take one
    batched eigendecomposition U = V diag(w) V^-1 and form
    V diag(i angle w) V^-1.
    """
    if u.shape[1:] == (1, 1):
        z = u[:, 0, 0]
        cut = np.abs(z + 1.0) < guard
        return (1j * np.angle(z[~cut]))[:, None, None], cut
    w, v = np.linalg.eig(u)
    cut = (np.abs(w + 1.0) < guard).any(axis=1)
    w, v = w[~cut], v[~cut]
    a = (v * (1j * np.angle(w))[:, None, :]) @ np.linalg.inv(v)
    return 0.5 * (a - adjoint(a)), cut


def principal_log_unitaries(
    u: np.ndarray, *, guard: float = 1e-9, what: str = "matrix"
):
    """Principal logarithm of every unitary in a stack, anti-Hermitized.

    Raises BranchCutError naming the first entry with an eigenvalue within
    `guard` of -1 as "<what> <index>".
    """
    logs, cut = unitary_logs(u, guard=guard)
    bad = np.flatnonzero(cut)
    if bad.size:
        raise BranchCutError(
            f"{what} {bad[0]}: eigenvalue at -1 within {guard:g}; "
            "refine the lattice"
        )
    return logs


def expm(a: np.ndarray) -> np.ndarray:
    if a.shape == (1, 1):
        return np.array([[np.exp(a[0, 0])]], dtype=complex)
    return scipy.linalg.expm(a)


def expms(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix in a stack."""
    return scipy.linalg.expm(a.astype(complex))


def symmetric_unitary_sqrt(w: np.ndarray, *, guard: float = 1e-9) -> np.ndarray:
    """Principal square root of a symmetric unitary matrix.

    The principal root of a symmetric matrix is symmetric, so g = sqrt(W)
    satisfies g g^T = W (a Takagi factor).
    """
    if w.shape == (1, 1):
        z = w[0, 0]
        if abs(z + 1.0) < guard:
            raise BranchCutError("sewing matrix eigenvalue at -1; refine the lattice")
        return np.array([[np.exp(0.5j * np.angle(z))]], dtype=complex)
    ev = np.linalg.eigvals(w)
    if np.min(np.abs(ev + 1.0)) < guard:
        raise BranchCutError("sewing matrix eigenvalue at -1; refine the lattice")
    return scipy.linalg.sqrtm(w)
