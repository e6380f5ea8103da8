"""Hamiltonian families on lattices: spectra, band projections, frames."""

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._matrix import adjoint, non_hermitian, polar_unitaries
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


def eigensolve_family(
    h: HamiltonianFamily, lat: InvolutiveLattice, bands=None
) -> SpectralData:
    """Diagonalize the family at every lattice site.

    Returns the eigenvalues of every band and the eigenvector columns of
    `bands` only (default: every band), shape (n_sites, N, m); bad band
    indices raise ValueError (see band_selection).  H is evaluated once per
    site block (see index_blocks), and each block is checked for
    Hermiticity and diagonalized by batched eigh calls, so no
    (n_sites, N, N) array exists unless every band is kept.  Raises
    ModelError on an evaluator output of the wrong shape, or naming the
    first site whose matrix is not Hermitian.

    Sectors: the indices split into the connected components of the block's
    nonzero pattern (the entries nonzero at any site of the block, made
    symmetric).  A block of one component is solved by one dense eigh of
    the whole stack.  Otherwise each component is solved on its own: a
    component tridiagonal in its index order is rotated by a diagonal phase
    to a real symmetric matrix, any other one takes a dense eigh.  The
    eigenvalues of all components merge in ascending order (a stable sort,
    ties in component order), and each kept eigenvector is zero outside its
    component.  The kept columns equal those of the full eigensolve bit for
    bit.
    """
    n, dim = lat.n_sites, h.dimension
    sel = list(range(dim)) if bands is None else band_selection(bands, dim)
    values = np.empty((n, dim))
    vectors = np.empty((n, dim, len(sel)), dtype=complex)
    split = {}  # nonzero pattern -> its sectors
    for block in index_blocks(n, dim * dim):
        stack = h(lat.sites[block])
        skew = non_hermitian(stack)
        if skew.size:
            raise ModelError(
                f"{h.name or 'model'}: non-Hermitian output at site "
                f"{block.start + skew[0]}"
            )
        pattern = (stack != 0).any(axis=0)
        pattern |= pattern.T
        key = pattern.tobytes()
        if key not in split:
            split[key] = _sectors(pattern)
        if len(split[key]) == 1:
            values[block], v = np.linalg.eigh(stack)
            vectors[block] = v[:, :, sel]
        else:
            values[block], vectors[block] = _sector_eigh(stack, split[key], sel)
    return SpectralData(values, vectors, lat, tuple(sel))


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


def _sector_eigh(stack: np.ndarray, sectors: list, bands: list) -> tuple:
    """Ascending eigenvalues and the eigenvectors of `bands` of a stack that
    is block diagonal over `sectors` (see _sectors), one sector at a time.
    Only the kept columns are rotated and scattered into place."""
    n, dim = stack.shape[:2]
    w = np.empty((n, dim))
    solved = []  # per sector: (indices, first merged column, phases, vectors)
    start = 0
    for idx, tridiagonal in sectors:
        cols = slice(start, start + len(idx))
        if tridiagonal:
            sub = stack[:, idx[1:], idx[:-1]]
            w[:, cols], d, u = _tridiagonal_eigh(stack[:, idx, idx].real, sub)
        else:
            d = None
            w[:, cols], u = np.linalg.eigh(stack[:, idx[:, None], idx])
        solved.append((idx, start, d, u))
        start = cols.stop
    order = np.argsort(w, axis=1, kind="stable")
    pick = order[:, bands]  # merged column of each kept band, (n, m)
    v = np.zeros((n, dim, len(bands)), dtype=complex)
    for idx, first, d, u in solved:
        site, col = np.nonzero((pick >= first) & (pick < first + len(idx)))
        vec = u[site, :, pick[site, col] - first]  # (kept, len(idx))
        v[site[:, None], idx, col[:, None]] = vec if d is None else d[site] * vec
    return np.take_along_axis(w, order, 1), v


def _tridiagonal_eigh(diag: np.ndarray, sub: np.ndarray) -> tuple:
    """eigh of the Hermitian tridiagonal stack with real diagonal `diag`
    (n, k) and sub-diagonal `sub` (n, k - 1), the triangle eigh reads, as
    ``(w, d, u)``: T's eigenvectors are d[:, :, None] * u.

    The diagonal unitary D = diag(d) with D^dag T D real takes its phases
    from `sub`, 1 where an entry is 0: the real symmetric stack has diagonal
    `diag` and off-diagonal |sub|, and u holds its eigenvectors.
    """
    n, k = diag.shape
    phase, mag = polar_unitaries(sub.reshape(-1, 1, 1))
    d = np.ones((n, k), dtype=complex)
    np.cumprod(phase.reshape(sub.shape), axis=1, out=d[:, 1:])
    # in each flattened k x k matrix, stride k + 1 from offset 0 walks the
    # diagonal, from offsets k and 1 the sub- and super-diagonal
    real = np.zeros((n, k * k))
    real[:, :: k + 1] = diag
    real[:, k :: k + 1] = real[:, 1 :: k + 1] = mag.reshape(sub.shape)
    w, u = np.linalg.eigh(real.reshape(n, k, k))
    return w, d, u


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
