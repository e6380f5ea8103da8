"""Hamiltonian families on lattices: spectra, band projections, frames."""

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._matrix import adjoint, eighs, non_hermitian, polar_unitaries, worst
from .errors import GapClosureError, ModelError
from .lattice import InvolutiveLattice

__all__ = [
    "HamiltonianFamily",
    "SpectralData",
    "ProjectionFamily",
    "Frame",
    "eigensolve_family",
    "band_selection",
    "select_projection",
    "gap_margin",
    "frame_from_projection",
    "pointwise",
]

DEGENERACY_TOL = 1e-8
# Matrix entries per stacked block (256 kB of complex128): layers that would
# otherwise form temporaries over every site or link, such as (n_sites, N, N)
# Hamiltonian stacks, run over blocks this size.
BLOCK_ENTRIES = 1 << 14
# Kept eigenvectors of tridiagonal sectors (see _tridiagonal_eigh): a kept
# eigenvalue within CLUSTER_TOL ||T|| of a neighbour in its sector is a
# cluster (LAPACK stein's test), and an inverse-iteration column must meet
# ||(T - lam) x|| <= RESIDUAL_TOL eps ||T|| ||x||; either failing takes a
# dense eigh of T.
CLUSTER_TOL = 1e-3
RESIDUAL_TOL = 64.0
EPS = np.finfo(float).eps
# smallest ||T|| used in the tolerances: eps times it is still a normal number
SAFE_NORM = np.finfo(float).tiny / EPS


def evaluate_block(evaluator, coords, shape: tuple, name: str) -> np.ndarray:
    """One evaluator call on an (n, d) coordinate block; one (d,) point is a
    block of one and gets its lone entry back.  An output other than
    (n,) + `shape` raises ModelError naming `name` and the shape returned.
    """
    coords = np.asarray(coords, dtype=float)
    block = np.atleast_2d(coords)
    out = np.asarray(evaluator(block))
    want = (len(block),) + shape
    if out.shape != want:
        raise ModelError(
            f"{name}: evaluator returned shape {out.shape}, expected {want}"
        )
    return out if coords.ndim == 2 else out[0]


def pointwise(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Adapt a per-point evaluator fn((d,) coords) to the block contract."""
    return lambda coords: np.stack([np.asarray(fn(c)) for c in coords])


def constant(value: np.ndarray) -> Callable:
    """Block evaluator of one array at every point, as a read-only broadcast."""
    return lambda coords: np.broadcast_to(value, (len(coords),) + np.shape(value))


@dataclass
class HamiltonianFamily:
    """N x N Hermitian matrix family: `evaluator` maps an (n, d) coordinate
    block to an (n, N, N) stack in one call (see evaluate_block; wrap a
    per-point function in `pointwise`).  An affine family states fixed
    `terms` (T, N, N), H(x) = sum_t c_t(x) terms[t], and its evaluator
    returns the real (n, T) coefficients c instead; calling the family
    still returns the stack, summed term by term (see _affine)."""

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    terms: Optional[np.ndarray] = None

    def sample(self, coords) -> np.ndarray:
        """The evaluator's output on a block: the stack, or the coefficients."""
        shape = (self.dimension,) * 2 if self.terms is None else self.terms.shape[:1]
        out = evaluate_block(self.evaluator, coords, shape, self.name or "model")
        if self.terms is not None and np.iscomplexobj(out):
            raise ModelError(f"{self.name or 'model'}: complex coefficients")
        return out

    def __call__(self, coords) -> np.ndarray:
        out = self.sample(coords)
        if self.terms is None:
            return out
        stack = _affine(np.atleast_2d(out), self.terms)
        return stack.reshape(out.shape[:-1] + stack.shape[1:])


def _affine(coefs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_t coefs[:, t] terms[t] for terms (T, ., .), in term order.  The
    real and the imaginary part each sum only the terms whose part is
    nonzero somewhere, from the first on (0 + x would turn a -0 into +0);
    any positions holding every nonzero entry see the same terms, so a
    stack and its pattern entries get the same bits."""
    out = np.zeros((len(coefs),) + terms.shape[1:], terms.dtype)
    c = coefs[:, :, None, None]
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN: flagged
        for part, m in zip((out.real, out.imag), (terms.real, terms.imag)):
            live = [c[:, t] * m[t] for t in range(len(m)) if m[t].any()]
            if live:
                part[...] = sum(live[1:], live[0])
    return out


@dataclass(eq=False)
class SpectralData:
    """Per-point ascending eigenvalues of every band, and the eigenvector
    columns of the sorted `bands`, in the order of the point set the solve
    ran on."""

    eigenvalues: np.ndarray  # (n_sites, N)
    eigenvectors: np.ndarray  # (n_sites, N, m), column i is band bands[i]
    bands: tuple
    hamiltonian_residual: Optional[float] = None  # see eigensolve_family

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[1]


@dataclass(eq=False)
class ProjectionFamily:
    """Per-point rank-m spectral projector P(x) = V(x) V(x)^dag, held as the
    eigensolve's kept columns V (n_sites, N, m) of the bands `band_indices`.

    Frames, symmetry checks and sewing read the columns.  `projectors`
    (n_sites, N, N) is formed on first read and then kept; the classify
    pipeline never reads it, so the N x N tensor exists only for callers
    that ask, such as the ``gb_*`` oracles.
    """

    columns: np.ndarray  # (n_sites, N, m)
    band_indices: tuple

    @property
    def rank(self) -> int:
        return self.columns.shape[2]

    @cached_property
    def projectors(self) -> np.ndarray:
        return self.columns @ adjoint(self.columns)


@dataclass(eq=False)
class Frame:
    """Per-point N x m orthonormal columns spanning the projector range."""

    columns: np.ndarray  # (n_sites, N, m)
    gauge_tag: str = "projector-eigh"

    @property
    def rank(self) -> int:
        return self.columns.shape[2]


def index_blocks(n: int, entries: int):
    """Consecutive slices covering range(n), each spanning at most
    BLOCK_ENTRIES matrix entries at `entries` per index (at least one index)."""
    size = max(1, BLOCK_ENTRIES // max(entries, 1))
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def orbit_blocks(points, entries: int):
    """Site blocks closed under the involution, with the involution inside.

    `points` is a tau-closed point set: any object whose `involution` maps
    each point's index to its image's, such as an InvolutiveLattice.
    Yields ``(sites, tau)``: ``sites`` holds the orbits of one
    ``index_blocks`` block of orbit representatives carrying `entries`
    values each (so at most twice that many sites), and ``sites[tau]`` equals
    ``points.involution[sites]``.  The blocks partition the sites, so values
    sampled on a block give their tau-images by the gather ``values[tau]``.
    """
    tau = points.involution
    reps = np.flatnonzero(np.arange(tau.size) <= tau)
    where = np.empty(tau.size, dtype=int)
    for block in index_blocks(reps.size, entries):
        first = reps[block]
        images = tau[first]
        sites = np.concatenate([first, images[images != first]])
        where[sites] = np.arange(sites.size)
        yield sites, where[tau[sites]]


def eigensolve_family(
    h: HamiltonianFamily, points, bands=None, j=None
) -> SpectralData:
    """Diagonalize the family at every point of a tau-closed point set.

    Only the (n, d) coordinates `points.sites` and `points.involution`
    (see orbit_blocks) are read: a lattice, or its link midpoints with
    `link_image` as the involution, serves.  Returns the eigenvalues of
    every band and the eigenvector columns of `bands` only (default: every
    band), shape (n_sites, N, m); bad band indices raise ValueError (see
    band_selection).  Raises ModelError on an evaluator output of the wrong
    shape, or naming the lowest site whose matrix is not Hermitian or not
    finite.  Given J (`j`, a SymmetryData), the result's
    `hamiltonian_residual` is verify_hamiltonian_symmetry's (see
    SymmetryData.hamiltonian_residual), with no second evaluation of H.

    Phase 1 runs per involution-closed block (see orbit_blocks) of
    BLOCK_ENTRIES values of the largest array it holds, so no (n_sites, N,
    N) array exists unless every band is kept.  It samples H once per site
    and reads the block's nonzero pattern (entries nonzero at any site of
    the block, made symmetric; an affine family's is its terms' union),
    which holds every nonzero, infinite or NaN entry: the Hermiticity
    guard, a J = 1 residual and the sectors read only its entries and
    their transposes, which an affine family sums from its terms' entries
    unless a dense eigh or a J other than 1 needs the stack.  A block whose
    pattern splits into several components, each tridiagonal in its index
    order (the oscillator's two parity sectors), stores its sites' sectors
    (see _SectorSites); any other block takes one dense eigh.  Phase 2, once
    every block has passed the guard, solves each sector layout over all
    its sites by one _sector_eigh: a sector, rotated by a diagonal phase to
    a real symmetric tridiagonal T, takes its eigenvalues from eigvalsh and
    its kept eigenvectors from inverse iteration (see _kept_columns), and
    the eigenvalues of all sectors merge in ascending order (a stable sort,
    ties in sector order).  A kept column is zero outside its sector and
    depends only on its own site, sector and eigenvalue, so the columns of
    a subset of the bands equal the full eigensolve's bit for bit.

    Real frames: given J, a block whose Hamiltonian residual is at most
    RESIDUAL_TOL eps max|H| over the block (roundoff) is solved at its orbit
    representatives s <= tau(s) only, fixed sites included.  After phase 2,
    each image tau(s) takes the eigenvalues of s and the columns
    J(s) conj(V(s)), an eigenframe of J(s) conj(H(s)) J(s)^dag, which
    differs from H(tau s) by the residual; gauge-invariant numbers then
    agree with a solve of both sites to about residual / gap.  Every other
    block, and every call without J, solves each site.
    """
    n, dim = len(points.sites), h.dimension
    sel = list(range(dim)) if bands is None else band_selection(bands, dim)
    values = np.empty((n, dim))
    vectors = np.zeros((n, dim, len(sel)), dtype=complex)
    split, layouts = {}, {}  # pattern, sectors -> _SectorSites, None if dense
    res = None if j is None else 0.0  # the Hamiltonian residual
    skew = n  # the lowest non-Hermitian site seen; later blocks may hold lower
    mirrored = np.zeros(n, dtype=bool)  # the tau-images that take J conj(V)

    def layout(pattern):  # its _SectorSites, or None: the block takes one eighs
        key = pattern.tobytes()
        if key not in split:  # patterns of the same sectors share their sites
            sectors = _sectors(pattern)
            same = str([(idx.tolist(), tri) for idx, tri in sectors])
            if same not in layouts:
                tri = len(sectors) > 1 and all(t for _, t in sectors)
                layouts[same] = _SectorSites(sectors, n) if tri else None
            split[key] = layouts[same]
        return split[key]

    terms = h.terms  # an affine family's pattern is its terms' union
    fixed = None if terms is None else _pattern(terms)
    stacked = terms is None or layout(fixed) is None or (j is not None and not j.unit)
    size = dim * dim if stacked else np.count_nonzero(fixed)  # values per site
    for sites, tau in orbit_blocks(points, size):
        coords = points.sites[sites]
        if stacked:
            stack = h(coords)
        else:  # the coefficients alone
            coefs, stack = h.sample(coords), None
        pattern = fixed if terms is not None else _pattern(stack)
        entries, mirror = stack, None  # a dense block: the stack itself
        if not pattern.all():
            at = np.array(np.nonzero(pattern))  # each entry, then its transpose
            pair = (stack[:, at, at[::-1]] if stack is not None
                    else _affine(coefs, terms[:, at, at[::-1]]))
            entries, mirror = np.split(pair, 2, axis=1)
        skew = min(skew, sites[non_hermitian(entries, 1, mirror)].min(initial=n))
        if skew < n:
            continue
        k = len(sites)  # the sites to solve, representatives first
        if j is not None:
            block_res = j.hamiltonian_residual(coords, stack, tau, entries)
            res = worst(res, block_res)
            if block_res <= RESIDUAL_TOL * EPS * np.abs(entries).max(initial=0.0):
                k = np.count_nonzero(tau >= np.arange(tau.size))
                mirrored[sites[k:]] = True
        rows = layout(pattern)
        if rows is None:
            values[sites[:k]], v = eighs(stack[:k])
            vectors[sites[:k]] = v[:, :, sel]
        else:
            rows.add(sites[:k], entries[:k, 0], at)
    if skew < n:
        raise ModelError(f"{h.name or 'model'}: non-Hermitian output at site {skew}")
    for rows in filter(None, layouts.values()):
        values[rows.sites[: rows.count]] = _sector_eigh(rows, sel, vectors.reshape(-1))
    if mirrored.any():
        images = np.flatnonzero(mirrored)
        reps = points.involution[images]
        values[images] = values.take(reps, axis=0)  # take: a fast row gather
        for x, a in j.theta_blocks(vectors, points, reps):
            vectors[points.involution[x]] = a
    return SpectralData(values, vectors, tuple(sel), res)


def _pattern(stack: np.ndarray) -> np.ndarray:
    """The entries nonzero in any matrix of the stack, made symmetric (NaN
    != 0: every infinite or NaN entry is in it)."""
    pattern = (stack != 0).any(axis=0)
    return pattern | pattern.T


def _sectors(pattern: np.ndarray) -> list:
    """Connected components of a symmetric boolean adjacency, in order of
    their smallest index, as (indices, tridiagonal) pairs."""
    todo = np.ones(len(pattern), dtype=bool)
    out = []
    while todo.any():
        reach = np.zeros_like(todo)
        reach[np.argmax(todo)] = True
        while True:
            grown = reach | pattern[reach].any(axis=0)
            if np.array_equal(grown, reach):
                break
            reach = grown
        todo &= ~reach
        idx = np.flatnonzero(reach)
        out.append((idx, not np.triu(pattern[np.ix_(idx, idx)], 2).any()))
    return out


class _SectorSites:
    """The sites of one layout of tridiagonal sectors (see _sectors),
    gathered over the whole point set for one _sector_eigh; sector i holds
    merged columns start_i ... start_i + k_i - 1, in sector order.  Per
    sector, `diag` (n, k) and `sub` (n, k - 1) hold its diagonal and
    sub-diagonal, the first `count` rows those of sites[:count]; `real`
    stays True while every stack added is real."""

    def __init__(self, sectors: list, n: int):
        self.index = [idx for idx, _ in sectors]
        self.start = np.cumsum([0] + [idx.size for idx in self.index])
        self.sites, self.count, self.real = np.empty(n, dtype=np.intp), 0, True
        self.diag = [np.empty((n, idx.size)) for idx in self.index]
        self.sub = [np.empty((n, idx.size - 1), complex) for idx in self.index]

    def add(self, sites: np.ndarray, entries: np.ndarray, at: np.ndarray):
        """Append `sites` from their matrices' `entries` (n, P) at the
        positions `at` (2, P), which hold every nonzero entry."""
        rows = slice(self.count, self.count + len(sites))
        self.sites[rows], self.count = sites, rows.stop
        self.real &= not np.iscomplexobj(entries)
        col = np.full((self.start[-1],) * 2, at.shape[1])  # past the end: a 0
        col[tuple(at)] = np.arange(at.shape[1])
        entries = np.concatenate([entries, np.zeros((len(sites), 1), entries.dtype)], 1)
        for idx, diag, sub in zip(self.index, self.diag, self.sub):
            diag[rows] = entries[:, col[idx, idx]].real
            sub[rows] = entries[:, col[idx[1:], idx[:-1]]]


def _sector_eigh(rows: _SectorSites, bands: list, out: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the sites gathered in `rows`.  A sector of
    size k writes its phases into `out`, the flattened (n_sites, N, m)
    vector array, and solves its kept rows by _kept_columns in chunks of at
    most BLOCK_ENTRIES // k rows."""
    sites, start = rows.sites[: rows.count], rows.start
    n, dim = sites.size, start[-1]
    w = np.empty((n, dim))
    solved = []  # per sector: its eigenvalues (n, k), phases and T
    for i, (diag, sub) in enumerate(zip(rows.diag, rows.sub)):
        # D = diag(d), its phases from the sub-diagonal (1 where it is 0),
        # makes D^dag T D real, with T's diagonal and off-diagonal |sub|
        diag, sub = diag[:n], sub[:n].real if rows.real else sub[:n]
        phase, off = polar_unitaries(sub.reshape(-1, 1, 1))
        off = off.reshape(sub.shape)
        d = np.ones(diag.shape, dtype=complex)
        np.cumprod(phase.reshape(sub.shape), axis=-1, out=d[:, 1:])
        del phase  # d holds the phases now
        ws = w[:, start[i] : start[i + 1]]
        for b in index_blocks(n, diag.shape[1] ** 2):
            ws[b] = np.linalg.eigvalsh(_real_tridiagonal(diag[b], off[b]))
        solved.append((ws, d, diag, off))
    order = np.argsort(w, axis=1, kind="stable")
    kept = order[:, bands]  # (n, m) merged columns
    sector = np.searchsorted(start, kept, side="right") - 1
    for i, (idx, (ws, d, diag, off)) in enumerate(zip(rows.index, solved)):
        k = idx.size
        # each eigenvalue's distance to its sector neighbours, inf past the ends
        gaps = np.full((n, k + 1), np.inf)
        np.subtract(ws[:, 1:], ws[:, :-1], out=gaps[:, 1:-1])
        site, col = np.nonzero(sector == i)
        for chunk in index_blocks(site.size, k):
            r, c = site[chunk], col[chunk]
            j = kept[r, c] - start[i]
            at = (sites[r] * dim + idx[:, None]) * len(bands) + c  # (k, rows)
            out[at] = d[r].T
            if k == 1:  # the phase is the whole column
                continue
            lam, near = ws[r, j], np.minimum(gaps[r, j], gaps[r, j + 1])
            norm = np.maximum(np.maximum(-ws[r, 0], ws[r, -1]), SAFE_NORM)
            _kept_columns(diag[r].T, off[r].T, at, lam, norm, j, near, out)
    return np.take_along_axis(w, order, 1)


def _real_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The (..., k, k) real symmetric stack with diagonal `diag` (..., k)
    and off-diagonal `off` (..., k - 1)."""
    k = diag.shape[-1]
    # in each flattened k x k matrix, stride k + 1 from offset 0 walks the
    # diagonal, from offsets k and 1 the sub- and super-diagonal
    real = np.zeros(diag.shape[:-1] + (k * k,))
    real[..., :: k + 1] = diag
    real[..., k :: k + 1] = real[..., 1 :: k + 1] = off
    return real.reshape(diag.shape + (k,))


def _kept_columns(diag, off, at, lam, norm, pos, near, out: np.ndarray):
    """Multiply phases in the flattened vector array `out` by the real
    eigenvectors of kept rows of size-k tridiagonal sectors (k > 1): row r
    is column r of T's diagonal (k, r), off-diagonal (k - 1, r) and
    positions (k, r) in `out`, with its eigenvalue, ||T||, position in T and
    distance to the nearest other eigenvalue of T.  One _tridiagonal_eigh
    call solves every row; a row whose eigenvalue clusters (CLUSTER_TOL) or
    whose column does not converge takes a dense eigh of T instead."""
    x, converged = _tridiagonal_eigh(diag, off, lam, norm)
    failed = np.flatnonzero(~converged | (near <= CLUSTER_TOL * norm))
    if failed.size:
        t = _real_tridiagonal(diag[:, failed].T, off[:, failed].T)
        x[:, failed] = eighs(t)[1][np.arange(failed.size), :, pos[failed]].T
    out[at] *= x


def _tridiagonal_eigh(diag, off, lam, norm) -> tuple:
    """Unit eigenvectors of real symmetric tridiagonal matrices T at given
    eigenvalues, by inverse iteration, as ``(x, converged)``, x (k, c).

    Column r of `diag` (k, c) and `off` (k - 1, c) holds T's diagonal and
    off-diagonal, lam[r] an eigenvalue of T and norm[r] = ||T||.  As in
    LAPACK stein, T - lam is factored once with partial pivoting (dlagtf),
    each pivot kept at least eps ||T|| in size (an exact eigenvalue makes
    one 0), and solved twice: first from a fixed start vector scaled by
    eps ||T||, then from the result, normalized and scaled the same way.  converged[r] is
    False unless the residual ||(T - lam) x||_inf is at most RESIDUAL_TOL
    eps ||T|| ||x||_inf.  Every operation acts on each column alone, so a
    column's bits do not depend on which other columns are solved with it.
    """
    k, c = diag.shape
    tol = EPS * norm
    # step i swaps rows i and i + 1 where swap[i], then subtracts mult[i]
    # times row i from row i + 1; row i of U is piv[i], up[0, i], up[1, i]
    # in columns i, i + 1, i + 2 (the last rows of `up` stay 0)
    piv = diag - lam
    up = np.zeros((2, k, c))
    mult = np.empty((k - 1, c))
    swap = np.empty((k - 1, c), dtype=bool)
    cur, right = piv[0], off[0]  # the pending row i in columns i, i + 1
    for i in range(k - 1):
        cur = np.copysign(np.maximum(np.abs(cur), tol), cur)
        below = off[i + 1] if i + 2 < k else 0.0  # row i + 1 in column i + 2
        sw = swap[i] = off[i] > np.abs(cur)
        next_diag = piv[i + 1]
        piv[i] = np.where(sw, off[i], cur)
        up[0, i] = np.where(sw, next_diag, right)
        up[1, i] = np.where(sw, below, 0.0)
        mult[i] = np.where(sw, cur, off[i]) / piv[i]
        cur = np.where(sw, right, next_diag) - mult[i] * up[0, i]
        right = np.where(sw, 0.0, below) - mult[i] * up[1, i]
    piv[k - 1] = np.copysign(np.maximum(np.abs(cur), tol), cur)

    x = np.zeros((k + 2, c))  # two rows of 0 below x for the back substitution

    def solve():
        for i in range(k - 1):
            top = np.where(swap[i], x[i + 1], x[i])
            x[i + 1] = np.where(swap[i], x[i], x[i + 1]) - mult[i] * top
            x[i] = top
        for i in range(k - 1, -1, -1):
            x[i] = (x[i] - up[0, i] * x[i + 1] - up[1, i] * x[i + 2]) / piv[i]

    x[:k] = _start_vector(k)[:, None] * tol
    solve()
    x[:k] *= tol / np.abs(x[:k]).max(axis=0)
    solve()
    x = x[:k]
    res = (diag - lam) * x
    res[1:] += off * x[:-1]
    res[:-1] += off * x[1:]
    scale = RESIDUAL_TOL * tol * np.abs(x).max(axis=0)
    converged = np.abs(res).max(axis=0) <= scale
    # sum of squares row by row: the same order whatever c is
    sq = x[0] * x[0]
    for i in range(1, k):
        sq += x[i] * x[i]
    return x / np.sqrt(sq), converged


def _start_vector(k: int) -> np.ndarray:
    """Inverse iteration's start: k fixed values spread over [-1/2, 1/2) by
    the golden-ratio sequence, with no sign pattern or mirror symmetry that
    would make it orthogonal to an eigenvector of a symmetric T."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    return np.arange(1, k + 1) * golden % 1.0 - 0.5


def _site_gaps(s: SpectralData, sel: list) -> Optional[np.ndarray]:
    """Per-site distance between the selected bands and the rest, or None
    when either group is empty.  The eigenvalues ascend, so the closest pair
    is adjacent: the least w[i + 1] - w[i] over the boundaries i, where
    exactly one of the bands i, i + 1 is selected."""
    picked = np.zeros(s.dimension, dtype=bool)
    picked[sel] = True
    edges = np.flatnonzero(picked[1:] != picked[:-1])
    if not edges.size:
        return None
    w = s.eigenvalues
    return (w[:, edges + 1] - w[:, edges]).min(axis=1)


def band_selection(band_indices, dimension: int) -> list:
    """Sorted distinct band indices; ValueError unless each is an integer in
    0..dimension-1."""
    if not all(isinstance(b, numbers.Integral) for b in band_indices):
        raise ValueError(f"band indices {band_indices!r} are not integers")
    sel = sorted(set(int(b) for b in band_indices))
    if any(b < 0 or b >= dimension for b in sel):
        raise ValueError(f"band indices {sel} outside 0..{dimension - 1}")
    return sel


def gap_margin(s: SpectralData, band_indices) -> float:
    """Minimal spectral distance between the selected bands and the rest.

    Strictly positive return is the numerical gap condition; 0 signals a
    touching selection.  Selecting every band returns +inf.  Bad band
    indices raise ValueError (see band_selection).
    """
    gaps = _site_gaps(s, band_selection(band_indices, s.dimension))
    return float("inf") if gaps is None else float(gaps.min())


def select_projection(s: SpectralData, band_indices) -> ProjectionFamily:
    """Spectral projector onto an isolated group of bands.

    Band indices refer to ascending-sorted eigenvalues, 0-based; bad ones,
    and bands whose eigenvectors `s` does not hold, raise ValueError (see
    band_selection).  Raises GapClosureError naming the first offending
    site if the selection is not isolated (boundary gap below 1e-8);
    degeneracy inside the selection is allowed.  The family keeps the
    selected eigenvector columns; see ProjectionFamily for when the
    projectors themselves are formed.
    """
    sel = band_selection(band_indices, s.dimension)
    missing = sorted(set(sel) - set(s.bands))
    if missing:
        raise ValueError(f"bands {missing} not kept by the eigensolve {s.bands}")
    gaps = _site_gaps(s, sel)
    if gaps is not None:
        worst = int(np.argmin(gaps))
        if gaps[worst] < DEGENERACY_TOL:
            raise GapClosureError(worst, float(gaps[worst]))
    cols = s.eigenvectors[:, :, [s.bands.index(b) for b in sel]]
    return ProjectionFamily(cols, tuple(sel))


def smooth_frame_gauge(f: Frame, lat: InvolutiveLattice) -> Frame:
    """Rotate frames so overlaps along the lattice's spanning tree are positive.

    Each frame V is right-multiplied by a_s = W_s a_parent(s), with W_s the
    polar unitary of V_s^dag V_parent(s) (the identity at the root), so every
    tree overlap is Hermitian positive semidefinite.  The W come from one
    polar_unitaries call; the products by pointer doubling (a <- a a[anc],
    anc <- anc[anc]), ceil(log2 depth) whole-lattice steps, and one more
    polar call re-unitarizes them.  On a Real frame a tau-symmetric tree
    keeps the result Real.  Off-tree links keep whatever holonomy the bundle
    forces on them (a twisted bundle admits no globally smooth gauge), but
    tree links become branch-safe for logarithm extraction.
    """
    cols, anc, root = f.columns, lat.tree_parent, lat.tree_links < 0
    a, _ = polar_unitaries(adjoint(cols) @ cols[anc])
    a[root] = np.eye(cols.shape[2])
    while not root[anc].all():
        a, anc = a @ a[anc], anc[anc]
    a, _ = polar_unitaries(a)
    return Frame(cols @ a, gauge_tag="tree-smoothed")


def _fix_gauge(basis: np.ndarray) -> np.ndarray:
    """Order columns by leading-component index; make that component real
    and positive.  The leading component is the one of largest magnitude."""
    lead = np.argmax(np.abs(basis), axis=1)  # (n, m)
    order = np.argsort(lead, axis=1, kind="stable")
    basis = np.take_along_axis(basis, order[:, None, :], axis=2)
    lead = np.take_along_axis(lead, order, axis=1)
    z = np.take_along_axis(basis, lead[:, None, :], axis=1)[:, 0, :]
    phase, _ = polar_unitaries(z.conj().reshape(-1, 1, 1))
    return basis * phase.reshape(z.shape)[:, None, :]


def frame_from_projection(
    p: ProjectionFamily, reference: Optional[np.ndarray] = None
) -> Frame:
    """Orthonormal spanning columns of the projector range at every point.

    Default gauge: the family's eigenvector columns, ordered by the index of
    their largest-magnitude component, that component phase-fixed real
    positive.  The gauge is arbitrary but deterministic; downstream
    gauge-invariant quantities never depend on it.

    `reference` (n_sites, N, m) aligns the frame to a smooth section: each
    frame is right-multiplied by the polar unitary of frame^dag @ reference,
    the closest in-range match.  Needed when local connection components are
    compared pointwise against a closed form in a specific gauge.
    """
    cols = _fix_gauge(np.asarray(p.columns, dtype=complex))
    if reference is None:
        return Frame(cols)
    ref = np.asarray(reference, dtype=complex)
    if ref.ndim == 2:
        ref = ref[:, :, None]
    u, _ = polar_unitaries(adjoint(cols) @ ref)
    return Frame(cols @ u, gauge_tag="reference-aligned")
