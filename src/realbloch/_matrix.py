"""Dense-matrix helpers used throughout the package.

Functions named in the plural act on stacks: arrays of shape (n, m, m)
holding one small matrix per site, link or plaquette.  Every matrix
function is one `spectral_maps` call: numpy is the only runtime dependency.
"""

import numpy as np

from .errors import BranchCutError, ModelError

HERMITICITY_RTOL = 1e-12
BRANCH_CUT_GUARD = 1e-9  # |eigenvalue + 1| below which log and sqrt are ambiguous


def frob(a) -> float:
    return float(np.linalg.norm(a))


def frob_each(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack (..., m, k): |z| at 1 x 1,
    else one dot product per matrix of a real view of its entries (a
    complex entry as its real and imaginary parts), so no complex temporary
    is formed; a non-contiguous stack is copied once.  NaN and infinity
    propagate."""
    a = np.asarray(a)
    if a.shape[-2:] == (1, 1):  # faster than a dot product per entry
        return np.abs(a[..., 0, 0])
    batch, size = a.shape[:-2], a.shape[-2] * a.shape[-1]
    if np.iscomplexobj(a):
        a, size = a[..., None].view(a.real.dtype), 2 * size
    flat = a.reshape(batch + (1, size))
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])


def max_frob(a: np.ndarray) -> float:
    """Largest Frobenius norm in a stack; 0 for an empty stack."""
    return float(frob_each(a).max(initial=0.0))


def worst(a: float, b: float) -> float:
    """The larger of two residuals, NaN if either is NaN (Python's max
    keeps its first argument against a NaN)."""
    return float(np.maximum(a, b))


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def non_hermitian(a: np.ndarray, sign: int = 1, mirror=None) -> np.ndarray:
    """Indices of the stack entries off `sign` times their adjoint (relative
    bound HERMITICITY_RTOL; sign -1 tests anti-Hermiticity) or not finite.
    Given `mirror`, `a` (n, 1, P) holds each matrix's entries on
    transposition-closed positions (0 elsewhere), `mirror` them transposed."""
    scale = np.maximum(frob_each(a), 1.0)  # infinite for an infinite entry
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and flagged
        off = frob_each(a - sign * (adjoint(a) if mirror is None else mirror.conj()))
    return np.flatnonzero(~(off <= HERMITICITY_RTOL * scale) | np.isinf(scale))


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


def spectral_maps(a: np.ndarray, f, *, hermitian: bool = False):
    """``(f(A), w)``: f applied to the spectrum w, (n, m), of a stack.  Rank
    one maps the scalars; larger ranks take one batched eig (eigh when
    `hermitian`, with V^-1 = V^dag) and form V diag(f(w)) V^-1.
    """
    if a.shape[1:] == (1, 1):
        w = a[:, :, 0]
        return f(w)[:, :, None], w
    if hermitian:
        w, v = np.linalg.eigh(a)
        return (v * f(w)[:, None, :]) @ adjoint(v), w
    w, v = np.linalg.eig(a)
    return (v * f(w)[:, None, :]) @ np.linalg.inv(v), w


def unitary_logs(u: np.ndarray):
    """Principal logarithms of a unitary stack, clear of the branch cut.

    Returns ``(logs, cut)``: ``cut`` marks the entries with an eigenvalue
    within BRANCH_CUT_GUARD of -1, where the principal branch is ambiguous,
    and ``logs`` holds the logarithms i angle(w) of the other entries in
    order, anti-Hermitized for ranks above one.
    """
    logs, w = spectral_maps(u, lambda w: 1j * np.angle(w))
    cut = (np.abs(w + 1.0) < BRANCH_CUT_GUARD).any(axis=1)
    logs = logs[~cut]
    return (logs if u.shape[1] == 1 else 0.5 * (logs - adjoint(logs))), cut


def principal_log_unitaries(u: np.ndarray, *, what: str = "matrix"):
    """Principal logarithm of every unitary in a stack (see unitary_logs).

    Raises BranchCutError naming the first entry with an eigenvalue within
    BRANCH_CUT_GUARD of -1 as "<what> <index>".
    """
    logs, cut = unitary_logs(u)
    bad = np.flatnonzero(cut)
    if bad.size:
        raise BranchCutError(
            f"{what} {bad[0]}: eigenvalue at -1 within {BRANCH_CUT_GUARD:g}; "
            "refine the lattice"
        )
    return logs


def expms(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every anti-Hermitian matrix in a stack: np.exp
    at rank one, else one batched eigh of i A.  ModelError names the first
    entry not anti-Hermitian (at rank one, not imaginary) or not finite,
    whose exponential would not be unitary.
    """
    a = np.asarray(a, dtype=complex)
    bad = non_hermitian(a, -1)
    if bad.size:
        raise ModelError(f"exponent {bad[0]} is not anti-Hermitian")
    if a.shape[1:] == (1, 1):
        return np.exp(a)
    return spectral_maps(1j * a, lambda w: np.exp(-1j * w), hermitian=True)[0]
