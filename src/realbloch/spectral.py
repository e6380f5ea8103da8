"""Hamiltonian families on lattices: spectra, band projections, frames."""

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._matrix import adjoint, non_hermitian, polar_unitaries, worst
from .errors import GapClosureError, ModelError, RankError
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
    per-point function in `pointwise`)."""

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, coords) -> np.ndarray:
        n = self.dimension
        return evaluate_block(self.evaluator, coords, (n, n), self.name or "model")


@dataclass
class SpectralData:
    """Per-site ascending eigenvalues of every band, and the eigenvector
    columns of the bands in `bands` (sorted; every band when omitted)."""

    eigenvalues: np.ndarray  # (n_sites, N)
    eigenvectors: np.ndarray  # (n_sites, N, m), column i is band bands[i]
    lattice: InvolutiveLattice
    bands: Optional[tuple] = None
    hamiltonian_residual: Optional[float] = None  # see eigensolve_family

    def __post_init__(self):
        if self.bands is None:
            self.bands = tuple(range(self.eigenvectors.shape[2]))

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[1]


class ProjectionFamily:
    """Per-site rank-m spectral projector P(x) = V(x) V(x)^dag.

    The selected eigenvector columns ``columns`` (n_sites, N, m) are the
    primary data: frames, symmetry checks and sewing read them directly.
    ``projectors`` (n_sites, N, N) is formed from them on first access and
    then kept; the classify pipeline never reads it, so the N x N tensor
    exists only for callers that ask, such as the ``gb_*`` oracles.

    ``ProjectionFamily(projectors, rank, lat)`` builds a family from
    projectors alone; its columns are then the eigenvalue-1 eigenvectors of
    the projectors, found by one batched eigh on first access (RankError
    naming the first site whose projector has the wrong rank).
    """

    def __init__(
        self,
        projectors: Optional[np.ndarray],
        rank: int,
        lattice: InvolutiveLattice,
        band_indices: tuple = (),
        columns: Optional[np.ndarray] = None,
    ):
        if projectors is None and columns is None:
            raise ValueError("a projection family needs projectors or columns")
        self._projectors = projectors
        self._columns = columns
        self.rank = rank
        self.lattice = lattice
        self.band_indices = tuple(band_indices)

    @property
    def columns(self) -> np.ndarray:
        if self._columns is None:
            self._columns = _projector_columns(self._projectors, self.rank)
        return self._columns

    @property
    def projectors(self) -> np.ndarray:
        if self._projectors is None:
            self._projectors = self.columns @ adjoint(self.columns)
        return self._projectors

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]


@dataclass
class Frame:
    """Per-site N x m orthonormal columns spanning the projector range."""

    columns: np.ndarray  # (n_sites, N, m)
    lattice: InvolutiveLattice
    gauge_tag: str = "projector-eigh"

    @property
    def rank(self) -> int:
        return self.columns.shape[2]

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]


def index_blocks(n: int, entries: int):
    """Consecutive slices covering range(n), each spanning at most
    BLOCK_ENTRIES matrix entries at `entries` per index (at least one index)."""
    size = max(1, BLOCK_ENTRIES // max(entries, 1))
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def orbit_blocks(lat: InvolutiveLattice, dim: int):
    """Site blocks closed under the involution, with the involution inside.

    Yields ``(sites, tau)``: ``sites`` holds the orbits of one
    ``index_blocks`` block of orbit representatives carrying dim x dim
    matrices (so at most twice that many sites), and ``sites[tau]`` equals
    ``lat.involution[sites]``.  The blocks partition the sites, so values
    sampled on a block give their tau-images by the gather ``values[tau]``.
    """
    tau = lat.involution
    reps = np.flatnonzero(np.arange(lat.n_sites) <= tau)
    where = np.empty(lat.n_sites, dtype=int)
    for block in index_blocks(reps.size, dim * dim):
        first = reps[block]
        images = tau[first]
        sites = np.concatenate([first, images[images != first]])
        where[sites] = np.arange(sites.size)
        yield sites, where[tau[sites]]


def eigensolve_family(
    h: HamiltonianFamily, lat: InvolutiveLattice, bands=None, j=None
) -> SpectralData:
    """Diagonalize the family at every lattice site.

    Returns the eigenvalues of every band and the eigenvector columns of
    `bands` only (default: every band), shape (n_sites, N, m); bad band
    indices raise ValueError (see band_selection).  H is evaluated once per
    site, in involution-closed blocks (see orbit_blocks), each checked for
    Hermiticity, so no (n_sites, N, N) array exists unless every band is
    kept.  Raises ModelError on an evaluator output of the wrong shape, or
    naming the lowest site whose matrix is not Hermitian or not finite.
    Given J (`j`, a SymmetryData), the blocks also yield the result's
    `hamiltonian_residual`, verify_hamiltonian_symmetry's residual (see
    SymmetryData.hamiltonian_residual), with no second evaluation of H.

    Sectors: the indices split into the connected components of the block's
    nonzero pattern (the entries nonzero at any site of the block, made
    symmetric).  A block of several components, each tridiagonal in its
    index order (the oscillator's two parity sectors), solves each on its
    own; any other block takes one dense eigh of the whole stack.  A
    sector is rotated by a diagonal phase to a real symmetric tridiagonal
    T and takes every eigenvalue from one eigvalsh per block, sectors of
    one size as one stack; its kept eigenvectors come from inverse
    iteration over chunks of kept rows gathered across blocks (see
    _TridiagonalRows).  A kept eigenvalue within CLUSTER_TOL ||T|| of a
    neighbour in its sector, or a column whose residual misses its bound,
    takes a dense eigh of T instead.  The eigenvalues of all sectors merge
    in ascending order (a stable sort, ties in sector order), and each kept
    eigenvector is zero outside its sector.

    Every kept column depends only on its own site, component and
    eigenvalue, so the columns of a subset of the bands equal the full
    eigensolve's bit for bit.
    """
    n, dim = lat.n_sites, h.dimension
    sel = list(range(dim)) if bands is None else band_selection(bands, dim)
    values = np.empty((n, dim))
    vectors = np.zeros((n, dim, len(sel)), dtype=complex)
    out = vectors.reshape(-1)
    kept = {}  # sector size -> _TridiagonalRows
    split = {}  # nonzero pattern -> its sector layout, None for one sector
    residual = None if j is None else 0.0
    skew = n  # the lowest non-Hermitian site seen; later blocks may hold lower
    for sites, tau in orbit_blocks(lat, dim):
        coords = lat.sites[sites]
        stack = h(coords)
        skew = min(skew, sites[non_hermitian(stack)].min(initial=n))
        if skew < n:
            continue
        if j is not None:
            residual = worst(residual, j.hamiltonian_residual(coords, stack, tau))
        pattern = (stack != 0).any(axis=0)
        pattern |= pattern.T
        key = pattern.tobytes()
        if key not in split:
            sectors = _sectors(pattern)
            tridiagonal = len(sectors) > 1 and all(tri for _, tri in sectors)
            split[key] = _sector_groups(sectors) if tridiagonal else None
        if split[key] is None:
            values[sites], v = np.linalg.eigh(stack)
            vectors[sites] = v[:, :, sel]
        else:
            values[sites] = _sector_eigh(stack, split[key], sel, out, kept, sites)
    if skew < n:
        raise ModelError(f"{h.name or 'model'}: non-Hermitian output at site {skew}")
    for rows in kept.values():
        rows.solve()
    return SpectralData(values, vectors, lat, tuple(sel), residual)


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


def _sector_groups(sectors: list) -> tuple:
    """Tridiagonal sectors (see _sectors) grouped by size, each group solved
    as one stack, as ``(groups, locate)``.  Sector i holds merged columns
    start_i, start_i + 1, ... in sector order; groups lists per group
    (indices (S, k), merged columns (S, k)), and locate (3, N) gives each
    merged column's group, sector in the group and position in the sector."""
    start = np.cumsum([0] + [len(idx) for idx, _ in sectors])
    members = {}
    for i, (idx, _) in enumerate(sectors):
        members.setdefault(len(idx), []).append(i)
    groups, locate = [], np.empty((3, start[-1]), dtype=np.intp)
    for g, (k, group) in enumerate(members.items()):
        cols = start[group][:, None] + np.arange(k)
        locate[0, cols] = g
        locate[1, cols] = np.arange(len(group))[:, None]
        locate[2, cols] = np.arange(k)
        groups.append((np.stack([sectors[i][0] for i in group]), cols))
    return groups, locate


def _sector_eigh(
    stack: np.ndarray, layout: tuple, bands: list, out, kept: dict, sites
) -> np.ndarray:
    """Ascending eigenvalues of the `sites`, whose stack is block diagonal
    over the tridiagonal sectors of `layout` (see _sector_groups).

    `out` is the flattened (n_sites, N, m) vector array.  A sector of size
    k writes its phases d there and records its kept rows in kept[k] (see
    _TridiagonalRows), which multiplies them by the real eigenvectors after
    the block loop."""
    groups, locate = layout
    n, dim = stack.shape[:2]
    w = np.empty((n, dim))
    solved = []  # per group: eigenvalues (n, S, k), phases and T
    for idx, cols in groups:
        # D = diag(d), its phases from the sub-diagonal (1 where it is 0),
        # makes D^dag T D real, with T's diagonal and off-diagonal |sub|
        diag = stack[:, idx, idx].real
        sub = stack[:, idx[:, 1:], idx[:, :-1]]
        phase, off = polar_unitaries(sub.reshape(-1, 1, 1))
        off = off.reshape(sub.shape)
        d = np.ones(diag.shape, dtype=complex)
        np.cumprod(phase.reshape(sub.shape), axis=-1, out=d[..., 1:])
        ws = np.linalg.eigvalsh(_real_tridiagonal(diag, off))
        solved.append((ws, d, diag, off))
        w[:, cols] = ws
    order = np.argsort(w, axis=1, kind="stable")
    group, member, pos = locate[:, order[:, bands]]  # each (n, m)
    m = len(bands)
    for g, ((idx, _), (ws, d, diag, off)) in enumerate(zip(groups, solved)):
        site, col = np.nonzero(group == g)
        s, j = member[site, col], pos[site, col]
        at = (sites[site, None] * dim + idx[s]) * m + col[:, None]
        out[at] = d[site, s]
        k = idx.shape[1]
        if k == 1:  # the phase is the whole column
            continue
        # each kept eigenvalue's distance to its sector neighbours (inf past
        # the ends), and ||T||, the largest eigenvalue magnitude
        gaps = np.full(ws.shape[:2] + (k + 1,), np.inf)
        np.subtract(ws[:, :, 1:], ws[:, :, :-1], out=gaps[:, :, 1:-1])
        near = np.minimum(gaps[site, s, j], gaps[site, s, j + 1])
        norm = np.maximum(np.maximum(-ws[site, s, 0], ws[site, s, -1]), SAFE_NORM)
        if k not in kept:  # a later orbit block has at most twice these n sites
            kept[k] = _TridiagonalRows(k, out, 2 * n * m)
        cluster = near <= CLUSTER_TOL * norm
        kept[k].add(diag[site, s], off[site, s], at, ws[site, s, j], norm, j, cluster)
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


class _TridiagonalRows:
    """Kept (site, band) rows of the tridiagonal sectors of one size k > 1,
    whose phases d in the flattened vector array `out` are multiplied by
    their real eigenvectors.

    One column per row: the real tridiagonal T's diagonal (k, .) and
    off-diagonal (k - 1, .), the positions (k, .) of the row's sector
    entries in `out`; per row the eigenvalue, ||T|| (its largest eigenvalue
    magnitude), the band's position in its sector and whether the
    eigenvalue clusters with a neighbour.  `add` solves the whole chunks
    (see solve) once one is pending, so the store holds at most a chunk
    plus the `most` rows of one add.
    """

    def __init__(self, k: int, out: np.ndarray, most: int):
        self.k, self.out, self.chunk = k, out, max(1, BLOCK_ENTRIES // k)
        size, self.rows = self.chunk + most, 0
        self.diag, self.off = np.empty((k, size)), np.empty((k - 1, size))
        self.at = np.empty((k, size), dtype=np.intp)
        self.lam, self.norm = np.empty(size), np.empty(size)
        self.pos, self.cluster = np.empty(size, np.intp), np.empty(size, bool)

    def add(self, diag, off, at, lam, norm, pos, cluster):
        """Record rows given as diag (r, k), off (r, k - 1), at (r, k) and
        lam, norm, pos, cluster (r,)."""
        new = slice(self.rows, self.rows + len(lam))
        self.diag[:, new], self.off[:, new], self.at[:, new] = diag.T, off.T, at.T
        self.lam[new], self.norm[new], self.pos[new] = lam, norm, pos
        self.cluster[new], self.rows = cluster, new.stop
        if self.rows >= self.chunk:
            self.solve(whole=True)

    def solve(self, whole: bool = False):
        """Multiply the rows' phases in `out` by their real eigenvectors, in
        chunks of at most BLOCK_ENTRIES entries per (k, chunk) array: by
        inverse iteration, or by a dense eigh of T for a clustered row and
        a row that does not converge.  With `whole`, the rows past the last
        whole chunk stay, moved to the front."""
        done = self.rows - self.rows % self.chunk if whole else self.rows
        for rows in index_blocks(done, self.k):
            x, converged = _tridiagonal_eigh(
                self.diag[:, rows], self.off[:, rows], self.lam[rows], self.norm[rows]
            )
            failed = np.flatnonzero(~converged | self.cluster[rows])
            if failed.size:
                x[:, failed] = self.dense(rows.start + failed)
            self.out[self.at[:, rows]] *= x
        rest, self.rows = slice(done, self.rows), self.rows - done
        for a in (self.diag, self.off, self.at, self.lam, self.norm, self.pos):
            a[..., : self.rows] = a[..., rest]
        self.cluster[: self.rows] = self.cluster[rest]

    def dense(self, rows: np.ndarray) -> np.ndarray:
        """Eigenvectors (k, len(rows)) of the given rows by dense eigh."""
        t = _real_tridiagonal(self.diag[:, rows].T, self.off[:, rows].T)
        return np.linalg.eigh(t)[1][np.arange(len(rows)), :, self.pos[rows]].T


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
    when either group is empty."""
    rest = [j for j in range(s.dimension) if j not in sel]
    if not sel or not rest:
        return None
    lam_sel = s.eigenvalues[:, sel]
    lam_rest = s.eigenvalues[:, rest]
    return np.abs(lam_sel[:, :, None] - lam_rest[:, None, :]).min(axis=(1, 2))


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
    return ProjectionFamily(None, len(sel), s.lattice, tuple(sel), columns=cols)


def smooth_frame_gauge(f: Frame, lat: InvolutiveLattice) -> Frame:
    """Rotate frames so overlaps along a spanning tree are positive.

    The tree is breadth-first from site 0, each site visiting its
    neighbours in link order.  Each frame is right-multiplied by the adjoint
    of the polar unitary of its overlap with its already-fixed parent, one
    batched SVD per depth level.  Off-tree links keep whatever holonomy the
    bundle forces on them (a twisted bundle admits no globally smooth
    gauge), but tree links become branch-safe for logarithm extraction.
    """
    src = np.stack([lat.link_tail, lat.link_head], axis=1).ravel()
    order = np.argsort(src, kind="stable")
    nbr = np.stack([lat.link_head, lat.link_tail], axis=1).ravel()[order]
    start = np.searchsorted(src[order], np.arange(lat.n_sites + 1))
    cols = f.columns.copy()
    seen = np.zeros(lat.n_sites, dtype=bool)
    seen[0] = True
    level = np.array([0])
    while level.size:
        # the level's neighbour lists, concatenated in level order
        counts = start[level + 1] - start[level]
        offsets = np.cumsum(counts) - counts
        entry = np.arange(counts.sum()) + np.repeat(start[level] - offsets, counts)
        cand, par = nbr[entry], np.repeat(level, counts)
        fresh = ~seen[cand]
        cand, par = cand[fresh], par[fresh]
        first = np.sort(np.unique(cand, return_index=True)[1])  # queue order
        level, parents = cand[first], par[first]
        seen[level] = True
        # the SVD at every rank (no rank-1 phase shortcut) keeps the frames
        # bitwise equal to a site-by-site polar decomposition
        u, _, vh = np.linalg.svd(adjoint(cols[level]) @ cols[parents])
        cols[level] = cols[level] @ (u @ vh)
    return Frame(cols, lat, gauge_tag="tree-smoothed")


def _projector_columns(projectors: np.ndarray, m: int) -> np.ndarray:
    """Orthonormal range columns of rank-m projectors (batched eigh)."""
    w, v = np.linalg.eigh(projectors)
    ranks = np.count_nonzero(w > 0.5, axis=1)
    wrong = np.flatnonzero(ranks != m)
    if wrong.size:
        s = int(wrong[0])
        raise RankError(f"projector rank {ranks[s]} != {m} at site {s}")
    return v[:, :, v.shape[2] - m :]


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
    """Orthonormal spanning columns of the projector range at every site.

    Default gauge: the family's eigenvector columns (for a projector-only
    family, the eigenvalue-1 eigenvectors of P), ordered by the index of
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
        return Frame(cols, p.lattice)
    ref = np.asarray(reference, dtype=complex)
    if ref.ndim == 2:
        ref = ref[:, :, None]
    u, _ = polar_unitaries(adjoint(cols) @ ref)
    return Frame(cols @ u, p.lattice, gauge_tag="reference-aligned")
