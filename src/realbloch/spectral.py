"""Hamiltonian families on lattices: spectra, band projections, frames."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._matrix import adjoint, frob_each, polar_unitaries
from .errors import GapClosureError, ModelError, RankError
from .lattice import InvolutiveLattice

__all__ = [
    "HamiltonianFamily",
    "SpectralData",
    "ProjectionFamily",
    "Frame",
    "eigensolve_family",
    "select_projection",
    "gap_margin",
    "frame_from_projection",
]

HERMITICITY_RTOL = 1e-12
DEGENERACY_TOL = 1e-8
# Matrix entries per stacked block (256 kB of complex128): layers that would
# otherwise form temporaries over every site or link, such as (n_sites, N, N)
# Hamiltonian stacks, run over blocks this size.
BLOCK_ENTRIES = 1 << 14


@dataclass
class HamiltonianFamily:
    """Site-coordinate evaluator of an N x N Hermitian matrix."""

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, coords) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(coords, dtype=float)))


@dataclass
class SpectralData:
    """Per-site ascending eigenvalues and matching eigenvector columns."""

    eigenvalues: np.ndarray  # (n_sites, N)
    eigenvectors: np.ndarray  # (n_sites, N, N)
    lattice: InvolutiveLattice

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
    h: HamiltonianFamily, lat: InvolutiveLattice, threads: int = 1
) -> SpectralData:
    """Diagonalize the family at every lattice site.

    H is evaluated once per site, and each site block (see index_blocks) is
    checked for Hermiticity and diagonalized by one batched eigh, so no
    (n_sites, N, N) array exists besides the returned eigenvectors.  There
    is no thread pool: `threads` is accepted for compatibility and has no
    effect, so results never depend on it.  Raises ModelError naming the
    first site whose matrix has the wrong shape or is not Hermitian.
    """
    n, dim = lat.n_sites, h.dimension
    name = h.name or "model"
    values = np.empty((n, dim))
    vectors = np.empty((n, dim, dim), dtype=complex)
    for block in index_blocks(n, dim * dim):
        mats, bad = [], None
        for s in range(block.start, block.stop):
            mat = h(lat.sites[s])
            if mat.shape != (dim, dim):
                bad = (s, mat.shape)
                break
            mats.append(mat)
        stack = np.array(mats).reshape(len(mats), dim, dim)
        scale = np.maximum(frob_each(stack), 1.0)
        skew = frob_each(stack - adjoint(stack)) > HERMITICITY_RTOL * scale
        skew = np.flatnonzero(skew)
        if skew.size:
            raise ModelError(
                f"{name}: non-Hermitian output at site {block.start + skew[0]}"
            )
        if bad is not None:
            raise ModelError(
                f"{name}: evaluator returned shape {bad[1]}, expected {(dim, dim)}"
            )
        values[block], vectors[block] = np.linalg.eigh(stack)
    return SpectralData(values, vectors, lat)


def _site_gaps(s: SpectralData, sel: list) -> Optional[np.ndarray]:
    """Per-site distance between the selected bands and the rest, or None
    when either group is empty."""
    rest = [j for j in range(s.dimension) if j not in sel]
    if not sel or not rest:
        return None
    lam_sel = s.eigenvalues[:, sel]
    lam_rest = s.eigenvalues[:, rest]
    return np.abs(lam_sel[:, :, None] - lam_rest[:, None, :]).min(axis=(1, 2))


def gap_margin(s: SpectralData, band_indices) -> float:
    """Minimal spectral distance between the selected bands and the rest.

    Strictly positive return is the numerical gap condition; 0 signals a
    touching selection.  Selecting every band returns +inf.
    """
    gaps = _site_gaps(s, sorted(set(int(b) for b in band_indices)))
    return float("inf") if gaps is None else float(gaps.min())


def select_projection(s: SpectralData, band_indices) -> ProjectionFamily:
    """Spectral projector onto an isolated group of bands.

    Band indices refer to ascending-sorted eigenvalues, 0-based.  Raises
    GapClosureError naming the first offending site if the selection is not
    isolated (boundary gap below 1e-8); degeneracy inside the selection is
    allowed.  The family keeps the selected eigenvector columns; see
    ProjectionFamily for when the projectors themselves are formed.
    """
    sel = sorted(set(int(b) for b in band_indices))
    dim = s.dimension
    if any(b < 0 or b >= dim for b in sel):
        raise ValueError(f"band indices {sel} outside 0..{dim - 1}")
    gaps = _site_gaps(s, sel)
    if gaps is not None:
        worst = int(np.argmin(gaps))
        if gaps[worst] < DEGENERACY_TOL:
            raise GapClosureError(worst, float(gaps[worst]))
    return ProjectionFamily(
        None, len(sel), s.lattice, tuple(sel), columns=s.eigenvectors[:, :, sel]
    )


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
    mag = np.abs(z)
    phase = np.ones_like(z)
    np.divide(z.conj(), mag, out=phase, where=mag > 0)
    return basis * phase[:, None, :]


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
