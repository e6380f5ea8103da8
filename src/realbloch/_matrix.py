"""Dense-matrix helpers used throughout the package.

Functions named in the plural act on stacks: arrays of shape (n, m, m)
holding one small matrix per site, link or plaquette.  Every matrix
function is one `spectral_maps` call: numpy is the only runtime dependency.
Ranks one and two take closed forms; LAPACK serves ranks three and up.
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


def _phases(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z/|z| and |z| of an array, the phase 1 where z = 0 as the SVD has it."""
    mag = np.abs(z)
    phase = np.ones_like(z)
    with np.errstate(invalid="ignore"):  # inf / inf is NaN
        np.divide(z, mag, out=phase, where=mag > 0)
    return phase, mag


def eighs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w (n, m) and unit eigenvector columns v (n, m, m)
    of a Hermitian stack, real or complex, read from its diagonal and lower
    triangle as LAPACK reads it.  Rank two takes the closed form of _eighs2;
    other ranks one batched eigh."""
    if a.shape[1:] != (2, 2):
        return np.linalg.eigh(a)
    return _eighs2(a)


def _eighs2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2 x 2 eigenpairs by one rotation, as LAPACK dlaev2.

    With b = a[1, 0] and its phase e = b/|b| (1 where b = 0), a is
    diag(1, e) S diag(1, e)^dag for the real S = [[p, |b|], [|b|, q]].  The
    eigenvalues are mid -/+ r with mid = (p + q)/2, half = (p - q)/2 and
    r = hypot(half, |b|).  The eigenvector of the eigenvalue on half's side
    is (t, |b|) up to order and sign, t = |half| + r a sum of two
    non-negative terms, so no cancellation; an exact p = q, b = 0 block
    (t = |b| = 0) keeps the identity columns, as LAPACK does.
    """
    p, q = a[:, 0, 0].real, a[:, 1, 1].real
    phase, mag = _phases(a[:, 1, 0])
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN
        mid, half = 0.5 * (p + q), 0.5 * (p - q)
        r = np.hypot(half, mag)
        w = np.stack([mid - r, mid + r], axis=1)
        t = np.abs(half) + r
        norm = np.hypot(t, mag)
        c, s = np.ones_like(t), np.zeros_like(t)
        np.divide(t, norm, out=c, where=norm != 0)
        np.divide(mag, norm, out=s, where=norm != 0)
    # half > 0: (c, s) belongs to the upper eigenvalue, else to the lower
    upper = half > 0
    v = np.empty(a.shape, dtype=phase.dtype)
    v[:, 0, 0] = np.where(upper, -s, c)
    v[:, 0, 1] = np.where(upper, c, s)
    v[:, 1, 0] = np.where(upper, c, -s) * phase
    v[:, 1, 1] = np.where(upper, s, c) * phase
    return w, v


def polar_unitaries(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar unitary factors of a stack and each smallest singular value.

    Rank one takes the phase z/|z| directly, and 1 where z = 0 as the SVD
    does; rank two the closed form of _polar2; other ranks the SVD product
    U W^dag.  An empty fiber has smallest singular value 0.  At ranks one
    and two a NaN or infinite entry has a NaN smallest singular value.
    """
    if a.shape[1:] == (1, 1):
        phase, mag = _phases(a[:, 0, 0])
        return phase[:, None, None], np.where(np.isinf(mag), np.nan, mag)
    if a.shape[1:] == (2, 2):
        return _polar2(a)
    u, s, vh = np.linalg.svd(a)
    smin = s[:, -1] if s.shape[-1] else np.zeros(a.shape[0])
    return u @ vh, smin


def _polar2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """2 x 2 polar factors and smallest singular values without the SVD.

    With det A = |det A| e^{i theta} (theta = 0 where det A = 0) and the
    adjugate adj A, U = (A + e^{i theta} (adj A)^dag) / t, where
    t = s_max + s_min = sqrt(||A||_F^2 + 2 |det A|).  At det A = 0 this is
    still unitary, one of the polar factors of a singular A; A = 0 gives the
    identity, as the SVD does.  s_max^2 - s_min^2 is the eigenvalue gap of
    A A^dag, hypot(alpha - beta, 2 |gamma|) for its diagonal alpha, beta and
    off-diagonal gamma, which keeps s_max = (t + gap / t) / 2 to roundoff
    where sqrt(||A||_F^2 - 2 |det A|) would lose half the digits (A close
    to a multiple of a unitary); s_min = |det A| / s_max.
    """
    (p, q), (r, s) = a[:, 0].T, a[:, 1].T
    with np.errstate(invalid="ignore"):  # inf * 0, inf - inf are NaN
        det = p * s - q * r
        phase, mag = _phases(det)
        rows = (a.real**2 + a.imag**2).sum(axis=2)  # alpha, beta
        t = np.sqrt(rows.sum(axis=1) + 2.0 * mag)
        gamma = p * r.conj() + q * s.conj()
        gap = np.hypot(rows[:, 0] - rows[:, 1], 2.0 * np.abs(gamma))
        adj = np.stack([s, -q, -r, p], axis=1).reshape(a.shape)
        u = np.broadcast_to(np.eye(2, dtype=det.dtype), a.shape).copy()
        np.divide(
            a + phase[:, None, None] * adjoint(adj),
            t[:, None, None],
            out=u,
            where=(t != 0)[:, None, None],
        )
        diff = np.zeros_like(t)  # s_max - s_min
        np.divide(gap, t, out=diff, where=t != 0)
        smax = 0.5 * (t + diff)
        smin = np.zeros_like(smax)
        np.divide(mag, smax, out=smin, where=smax != 0)
    return u, smin


def spectral_maps(a: np.ndarray, f, *, hermitian: bool = False):
    """``(f(A), w)``: f applied to the spectrum w, (n, m), of a stack.  Rank
    one maps the scalars.  A Hermitian stack (`hermitian`) takes its
    eigenpairs from eighs and forms V diag(f(w)) V^dag; any other stack
    takes the closed form of _maps2 at rank two, else one batched eig and
    V diag(f(w)) V^-1.
    """
    if a.shape[1:] == (1, 1):
        w = a[:, :, 0]
        return f(w)[:, :, None], w
    if hermitian:
        w, v = eighs(a)
        return (v * f(w)[:, None, :]) @ adjoint(v), w
    if a.shape[1:] == (2, 2):
        return _maps2(a, f)
    w, v = np.linalg.eig(a)
    return (v * f(w)[:, None, :]) @ np.linalg.inv(v), w


def _maps2(a: np.ndarray, f):
    """f of 2 x 2 matrices by linear interpolation on their spectrum.

    With m = tr A / 2 and the traceless B = A - m 1, whose eigenvalues are
    -/+ mu with mu^2 = B00^2 + B01 B10 (not m^2 - det A, which loses half
    the digits near a double eigenvalue), w = m -/+ mu and
    f(A) = (f(w1) + f(w2))/2 1 + (f(w2) - f(w1))/(2 mu) B.  The second
    coefficient is 0 where mu = 0, which for a diagonalisable A means
    A = m 1.  A NaN or infinite entry gives NaN, as it does at rank one.
    """
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf are NaN
        m = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        b = a - m[:, None, None] * np.eye(2)
        mu = np.sqrt(b[:, 0, 0] ** 2 + b[:, 0, 1] * b[:, 1, 0] + 0j)
        w = np.stack([m - mu, m + mu], axis=1)
        fw = f(w)
        coef = np.zeros_like(fw[:, 0])
        np.divide(fw[:, 1] - fw[:, 0], 2.0 * mu, out=coef, where=mu != 0)
        mean = 0.5 * (fw[:, 0] + fw[:, 1])
        return mean[:, None, None] * np.eye(2) + coef[:, None, None] * b, w


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


def principal_log_unitaries(u: np.ndarray, *, what: str = "matrix", ids=None):
    """Principal logarithm of every unitary in a stack (see unitary_logs).

    Raises BranchCutError naming the first entry with an eigenvalue within
    BRANCH_CUT_GUARD of -1 as "<what> <index>", or "<what> <ids[index]>".
    """
    logs, cut = unitary_logs(u)
    bad = np.flatnonzero(cut)
    if bad.size:
        at = bad[0] if ids is None else ids[bad[0]]
        raise BranchCutError(
            f"{what} {at}: eigenvalue at -1 within {BRANCH_CUT_GUARD:g}; "
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
