"""Time-reversal symmetry data, verification, and the frame sewing matrix.

Complex conjugation is always entrywise conjugation in the fixed
computational basis; models must be expressed in a basis where that is the
intended conjugation.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._matrix import adjoint, frob_each, max_frob, worst
from .errors import KramersObstructionError, SymmetryInconsistencyError
from .lattice import InvolutiveLattice, orbit_split
from .spectral import (
    Frame,
    HamiltonianFamily,
    ProjectionFamily,
    constant,
    evaluate_block,
    index_blocks,
    orbit_blocks,
)

__all__ = [
    "SymmetryData",
    "SewingField",
    "SymmetryReport",
    "verify_hamiltonian_symmetry",
    "verify_projection_symmetry",
    "sewing_matrix",
    "gb_equivariance_obstruction",
    "quaternionic_q",
]


@dataclass
class SymmetryData:
    """Unitary family J(x) together with the time-reversal parity.

    Parity +1 is even time reversal ("Real" structures), -1 is odd
    ("Quaternionic"; supported here only at the level of symmetry checks).
    `evaluator` follows the HamiltonianFamily block contract: an (n, d)
    coordinate block in, an (n, N, N) stack out.  `matrix` is the (N, N)
    J of a constant family (see `constant`) and None for a site-dependent
    one: the checks compute a constant J's unitary residual once, and skip
    J altogether when the matrix is the identity (`unit`; see `factor`).
    """

    dimension: int
    parity: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        self.unit = self.matrix is not None and np.array_equal(
            self.matrix, np.eye(self.dimension)
        )

    def __call__(self, coords) -> np.ndarray:
        n = self.dimension
        j = evaluate_block(self.evaluator, coords, (n, n), self.name or "symmetry")
        return np.asarray(j, dtype=complex)

    def factor(self, coords) -> Optional[np.ndarray]:
        """J on a coordinate block as a factor of the checks' products, or
        None when `matrix` is the identity (decided once, at construction):
        Theta is then plain complex conjugation, and the checks evaluate
        and multiply nothing."""
        return None if self.unit else self(coords)

    def hamiltonian_residual(self, coords, h: np.ndarray, tau, entries=None) -> float:
        """Max of || J(x)^dag H(tau x) J(x) - conj(H(x)) || over an
        involution-closed block (see orbit_blocks): its coordinates, its H
        stack and the gather `tau` to the tau-images.  A NaN anywhere gives
        NaN.  With J = 1, `entries`, H on positions holding every nonzero, serve."""
        js = self.factor(coords)
        h = entries if js is None and entries is not None else h
        ht = h[tau] if js is None else adjoint(js) @ h[tau] @ js
        return max_frob(ht - h.conj())

    def theta_blocks(self, cols: np.ndarray, points, sites=None):
        """Theta on orthonormal columns V (n_sites, N, m) at `sites` (every
        site when omitted), in blocks: yields ``(x, J(x) conj(V(x)))``, x
        the block's sites, and conj(V(x)) when J = 1 (see factor).  A block
        spans at most BLOCK_ENTRIES entries of the largest stack it holds:
        the (n, N, N) J when J is evaluated, else the (n, N, m) columns.
        Only `points.sites` is read: a lattice, or any point set, serves."""
        dim, m = cols.shape[1:]
        count = len(cols) if sites is None else len(sites)
        for block in index_blocks(count, dim * (m if self.unit else dim)):
            x = block if sites is None else sites[block]
            a = np.conjugate(cols[x])  # not take: it copies a strided array whole
            js = self.factor(points.sites[x])
            yield x, (a if js is None else js @ a)

    @staticmethod
    def constant(j: np.ndarray, parity: int = +1, name: str = "") -> "SymmetryData":
        """The same J at every site, as a read-only broadcast view."""
        j = np.asarray(j, dtype=complex)
        return SymmetryData(j.shape[0], parity, constant(j), name, j)

    @staticmethod
    def identity(dimension: int) -> "SymmetryData":
        return SymmetryData.constant(np.eye(dimension), +1, "identity")


@dataclass(eq=False)
class SewingField:
    """Per-site m x m matrix W(x) relating the frame at tau(x) to the
    conjugated frame at x through J."""

    w: np.ndarray  # (n_sites, m, m)
    parity: int
    unitarity_residual: float


@dataclass
class SymmetryReport:
    hamiltonian_residual: float
    unitary_residual: float
    tolerance: float

    @property
    def symmetric(self) -> bool:
        return (
            self.hamiltonian_residual <= self.tolerance
            and self.unitary_residual <= self.tolerance
        )


def _block_unitary_residual(js: np.ndarray, jt: np.ndarray, parity: int) -> float:
    """Max over a block of || J(x)^dag J(x) - 1 || and
    || J(tau x) conj(J(x)) - parity * 1 ||."""
    one = np.eye(js.shape[-1])
    return worst(
        max_frob(adjoint(js) @ js - one), max_frob(jt @ js.conj() - parity * one)
    )


def unitary_residual(j: SymmetryData, lat: InvolutiveLattice) -> float:
    """J's unitary residual: the max over sites of || J(x)^dag J(x) - 1 ||
    (J unitary) and || J(tau x) conj(J(x)) - parity * 1 || (Theta^2 =
    parity); neither implies the other.

    A constant J is checked once on its matrix; otherwise J is evaluated
    once per involution-closed block and the tau side is gathered.  A NaN
    anywhere gives NaN.
    """
    if j.matrix is not None:
        return _block_unitary_residual(j.matrix[None], j.matrix[None], j.parity)
    res = 0.0
    for sites, tau in orbit_blocks(lat, j.dimension**2):
        js = j(lat.sites[sites])
        res = worst(res, _block_unitary_residual(js, js[tau], j.parity))
    return res


def verify_hamiltonian_symmetry(
    h: HamiltonianFamily,
    j: SymmetryData,
    lat: InvolutiveLattice,
    tolerance: float = 1e-10,
) -> SymmetryReport:
    """Residuals of the time-reversal constraints on a Hamiltonian family.

    Reports max over sites of || J(x)^dag H(tau x) J(x) - conj(H(x)) || and
    the unitary residual of J (see unitary_residual); both below tolerance
    declare the family symmetric, and a NaN in either does not.  H is
    evaluated once per involution-closed block, and the tau side is a
    gather within the block: the kernel SymmetryData.hamiltonian_residual,
    which eigensolve_family runs on its own blocks when given J, as the
    classify pipeline does.  Report-only: never raises.
    """
    res_h = 0.0
    for sites, tau in orbit_blocks(lat, h.dimension**2):
        coords = lat.sites[sites]
        res_h = worst(res_h, j.hamiltonian_residual(coords, h(coords), tau))
    return SymmetryReport(res_h, unitary_residual(j, lat), tolerance)


def _theta_blocks(cols: np.ndarray, j: SymmetryData, points, sites=None):
    """Orthonormal columns V (n_sites, N, m) under Theta, in the site blocks
    of SymmetryData.theta_blocks: yields ``(block, A, V(tau x),
    V(tau x)^dag A)`` with A = J(x) conj(V(x)) on a tau-closed point set."""
    tau = points.involution
    for block, a in j.theta_blocks(cols, points, sites):
        vt = cols[tau[block]]
        yield block, a, vt, adjoint(vt) @ a


def _theta_orbits(cols: np.ndarray, j: SymmetryData, lat: InvolutiveLattice):
    """_theta_blocks over every site, or with J = 1 over one site x >= tau x
    per orbit, then over the images of those whose A = conj V(x) differs
    from V(tau x): where the two are equal bit for bit (the eigensolve's
    mirror), tau x repeats x, conjugated."""
    tau = lat.involution
    if not j.unit:
        yield from _theta_blocks(cols, j, lat)
        return
    high, again = np.flatnonzero(tau >= np.arange(tau.size)), []
    for x, a, vt, vta in _theta_blocks(cols, j, lat, high):
        again.append(tau[x][(a != vt).reshape(len(x), -1).any(axis=1) & (tau[x] != x)])
        yield x, a, vt, vta
    yield from _theta_blocks(cols, j, lat, np.concatenate(again))


def verify_projection_symmetry(
    p: ProjectionFamily, j: SymmetryData, lat: InvolutiveLattice
) -> float:
    """Max site residual of P(tau x) J(x) = J(x) conj(P(x)), for unitary J.

    Computed from the family's orthonormal columns V (P = V V^dag) as
    sqrt(2) || A - V(tau x) V(tau x)^dag A ||, A = J(x) conj(V(x)), on the
    site blocks that sewing_matrix reads too: nothing N x N is formed
    unless J is evaluated.  The two norms agree for unitary J (both
    projectors have rank m); classify checks J's unitary residual (see
    unitary_residual) first, so a non-unitary J fails there.  A NaN
    anywhere gives NaN.  With J = 1 a site whose columns are the conjugate
    of its image's bit for bit repeats its image's residual and is skipped
    (see _theta_orbits).
    """
    res = 0.0
    for _, a, vt, vta in _theta_orbits(p.columns, j, lat):
        res = worst(res, np.sqrt(2.0) * max_frob(a - vt @ vta))
    return res


def sewing_matrix(
    f: Frame,
    j: SymmetryData,
    lat: InvolutiveLattice,
    tolerance: float = 1e-6,
    mirrored=None,
) -> SewingField:
    """W(x) = Psi(tau x)^dag J(x) conj(Psi(x)) per site, the product taken
    as Psi(tau x)^dag A on the blocks of verify_projection_symmetry.

    Requires the projection symmetry to hold; a unitarity residual above
    tolerance, or NaN, raises.  Odd parity with odd rank over a nonempty
    fixed set is rejected outright: no consistent sewing matrix exists there.
    With J = 1, a site x > tau x whose frame is conj Psi(tau x) bit for bit
    (`mirrored`) takes W(x) = conj W(tau x).
    """
    m = f.rank
    if j.parity == -1 and m % 2 == 1 and lat.fixed_sites.size > 0:
        raise KramersObstructionError(
            f"odd parity with rank {m} over {lat.fixed_sites.size} fixed sites"
        )
    w = np.empty((lat.n_sites, m, m), dtype=complex)
    rows, copies = orbit_split(lat.involution, mirrored if j.unit else None)
    sites = rows if copies.size else None  # every site: the blocks are slices
    for block, _, _, vta in _theta_blocks(f.columns, j, lat, sites):
        w[block] = vta
    w[copies] = w[lat.involution[copies]].conj()
    res = max_frob(adjoint(w) @ w - np.eye(m))
    if not res <= tolerance:
        raise SymmetryInconsistencyError(
            f"sewing matrix unitarity residual {res:.3e} exceeds {tolerance:g}"
        )
    return SewingField(w, j.parity, res)


def gb_equivariance_obstruction(
    p: ProjectionFamily, j: SymmetryData, lat: InvolutiveLattice
) -> float:
    """Obstruction to the projected flat connection being equivariant.

    Max over links x -> x + mu of || P(x) conj(J(x+mu)^dag - J(x)^dag) || per
    unit spacing (forward differences of J along links).  Zero certifies the
    connection built from frame overlaps equivariant; constant J gives 0
    exactly.  J is sampled once over all sites; the links run in blocks.
    """
    js = j(lat.sites)
    tail, head = lat.link_tail, lat.link_head
    res = 0.0
    for block in index_blocks(lat.n_links, j.dimension**2):
        a = tail[block]
        dj = adjoint(js[head[block]]) - adjoint(js[a])
        val = frob_each(p.projectors[a] @ dj.conj()) / lat.link_spacing[block]
        res = worst(res, val.max(initial=0.0))
    return res


def quaternionic_q(n: int) -> np.ndarray:
    """Block-diagonal symplectic matrix used by odd-parity symmetry checks."""
    if n % 2:
        raise ValueError("quaternionic structure needs even dimension")
    return np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]])
