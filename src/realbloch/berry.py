"""Discrete Berry connections as unitary link variables.

The connection is discretized as the polar-unitary part of frame overlaps
on directed links (the standard lattice-gauge realization); the local
connection 1-form is recovered as the principal logarithm per unit
coordinate.  Gauge covariance of the link field is exact by construction.
"""

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._matrix import (
    adjoint,
    expms,
    max_frob,
    polar_unitaries,
    principal_log_unitaries,
)
from .errors import DiscretizationError, DomainError
from .lattice import InvolutiveLattice, mirror_rows, orbit_split
from .spectral import Frame, evaluate_block
from .symmetry import SewingField, SymmetryData

__all__ = [
    "LinkField",
    "LocalConnectionForm",
    "ProductConnectionSpec",
    "link_field",
    "link_field_from_connection",
    "local_connection_from_links",
    "equivariance_residual",
    "average_connection",
    "j_conjugate_connection",
]

OVERLAP_SINGULAR_TOL = 1e-6


@dataclass(eq=False)
class LinkField:
    """Per-link m x m unitaries on a lattice's canonical directed links, in
    its link order; the lattice itself is the caller's `lat`.

    Each undirected link is stored once in its canonical direction; the
    reversed traversal is the adjoint.  Immutable after construction.
    """

    u: np.ndarray  # (n_links, m, m)

    @property
    def rank(self) -> int:
        return self.u.shape[2]

    def gather(self, links: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Signed links: the adjoint at sign -1, the identity at sign 0."""
        step, back = self.u[links], signs < 0
        np.conjugate(step, out=step, where=back[:, None, None])  # in place: no copies
        if self.rank > 1:
            step[back] = step[back].swapaxes(1, 2)
        step[signs == 0] = np.eye(self.rank)
        return step

    def products(self, links: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Ordered link product along each row of a padded signed table."""
        m, (rows, width) = self.rank, links.shape
        # one gather, step-major so that each step's stack is contiguous
        steps = self.gather(links.T.ravel(), signs.T.ravel()).reshape(width, rows, m, m)
        hol = np.broadcast_to(np.eye(m, dtype=complex), (rows, m, m))
        for step in steps:
            hol = hol @ step
        return hol


@dataclass(eq=False)
class LocalConnectionForm:
    """Anti-Hermitian m x m matrices per canonical link, per unit coordinate.

    A canonical link is a (site, direction) pair, so this realizes local
    1-form components A_mu(x); values are reported in the lattice's angular
    chart (polar charts degenerate at sphere poles).  A value that is not
    anti-Hermitian (at rank one, not imaginary) raises ModelError when
    exponentiated.
    """

    a: np.ndarray  # (n_links, m, m)

    @property
    def rank(self) -> int:
        return self.a.shape[2]


@dataclass
class ProductConnectionSpec:
    """Closed-form product-bundle model: connection and J evaluators.

    `connection` maps an (n, d) coordinate block to the per-direction
    anti-Hermitian matrices A_mu, an (n, d, m, m) stack, in one call (for
    m > 1 a step that is not anti-Hermitian raises ModelError when
    exponentiated); `j` is the symmetry unitary of the product structure.
    """

    rank: int
    connection: Callable[[np.ndarray], np.ndarray]  # (n, d, m, m)
    j: SymmetryData
    base_tag: str
    name: str = ""

    def connection_at(self, coords) -> np.ndarray:
        """A_mu, one per coordinate direction, on a block or at one point."""
        shape = (np.shape(coords)[-1], self.rank, self.rank)
        a = evaluate_block(self.connection, coords, shape, self.name or "connection")
        return np.asarray(a, dtype=complex)


def link_field(f: Frame, lat: InvolutiveLattice, mirrored=None) -> LinkField:
    """Unitarized frame overlaps on every canonical link.

    One gather of the tail and head frames, one batched overlap and one
    batched polar decomposition (rank one: z/|z|).  Raises
    DiscretizationError naming the first link whose overlap is singular or
    not finite (band crossing or a lattice too coarse for the model's
    variation).  A link whose ends are `mirrored`, sites whose frame is the
    conjugate of their tau-image's bit for bit, is written from its image
    (conjugated, or transposed where `link_image_sign` is -1) when that is
    the lower link of the orbit.
    """
    rows, copies = orbit_split(lat.link_image, mirrored, (lat.link_tail, lat.link_head))
    tail, head = lat.link_tail[rows], lat.link_head[rows]
    u, smin = polar_unitaries(adjoint(f.columns[tail]) @ f.columns[head])
    bad = np.flatnonzero(~(smin > OVERLAP_SINGULAR_TOL))
    if bad.size:
        k = bad[0]
        lk = np.arange(lat.n_links)[rows][k]
        raise DiscretizationError(
            f"singular frame overlap on link {lk} ({tail[k]}->{head[k]}), "
            f"smallest singular value {smin[k]:.3e}"
        )
    return LinkField(mirror_rows(u, rows, copies, lat.link_image, lat.link_image_sign))


def _connection_steps(
    spec: ProductConnectionSpec, lat: InvolutiveLattice
) -> np.ndarray:
    """Closed-form connection times the link step, per canonical link.

    Evaluated at link midpoints; diagonal links carry both coordinate
    components, each times its grid spacing.
    """
    comps = spec.connection_at(lat.link_midpoints())  # (n_links, dim, m, m)
    # coordinate step of each link per direction
    dx = np.zeros(comps.shape[:2])
    straight = np.flatnonzero(lat.link_mu != 2)
    dx[straight, lat.link_mu[straight]] = lat.link_spacing[straight]
    dx[lat.link_mu == 2] = lat.grid_spacing
    return sum(comps[:, mu] * dx[:, mu, None, None] for mu in range(dx.shape[1]))


def link_field_from_connection(
    source: Union[ProductConnectionSpec, LocalConnectionForm], lat: InvolutiveLattice
) -> LinkField:
    """Sample a closed-form or per-link connection into link unitaries.

    Closed forms are evaluated at link midpoints (second order in spacing);
    per-link forms exponentiate their own values.
    """
    if isinstance(source, LocalConnectionForm):
        steps = source.a * lat.link_spacing[:, None, None]
    else:
        steps = _connection_steps(source, lat)
    return LinkField(expms(steps))


def local_connection_from_links(
    u: LinkField, lat: InvolutiveLattice
) -> LocalConnectionForm:
    """Principal-log connection components of a link field on `lat`, per
    unit coordinate.

    Raises BranchCutError (advising a finer lattice) naming the first link
    whose unitary has an eigenvalue at -1, where the principal branch is
    ambiguous.
    """
    a = principal_log_unitaries(u.u, what="link") / lat.link_spacing[:, None, None]
    return LocalConnectionForm(a)


def equivariance_residual(
    u: LinkField, w: SewingField, lat: InvolutiveLattice, mirrored=None
) -> float:
    """Discrete equivariance defect of a link field under the involution.

    Max over links x -> y of || W(x)^dag U(tau link) W(y) - conj(U(x->y)) ||.
    Parity does not enter: W(x) = Psi(tau x)^dag J(x) conj(Psi(x)) (see
    sewing_matrix) maps the conjugated frame to the frame at tau x, so the
    relation is a change of frame at either parity.  Direction reversal of
    the image link is handled through the adjoint.  A residual at
    discretization order certifies the connection equivariant.  A link
    written from its image (`mirrored`, see link_field), with its ends' W
    written likewise (see sewing_matrix), repeats its defect and is skipped.
    """
    rows, _ = orbit_split(lat.link_image, mirrored, (lat.link_tail, lat.link_head))
    img = u.gather(lat.link_image[rows], lat.link_image_sign[rows])
    lhs = adjoint(w.w[lat.link_tail[rows]]) @ img @ w.w[lat.link_head[rows]]
    return max_frob(lhs - u.u[rows].conj())


def j_conjugate_connection(
    a: LocalConnectionForm, j: SymmetryData, lat: InvolutiveLattice
) -> LocalConnectionForm:
    """Image of a product-bundle connection under the Real twist by J.

    Per link x -> y:  conj( J(x)^dag A(tau link) J(x) + log(J(x)^dag J(y)) / h ).
    The J-step term uses the unitary logarithm rather than a plain forward
    difference so that applying the map twice returns the input exactly;
    averaging then lands on a true fixed point.  J is sampled in one call
    over all sites and all J-step logarithms are one batched call; a
    BranchCutError names the first link whose step has an eigenvalue at -1.
    """
    if a.rank != j.dimension:
        raise DomainError(
            "product-bundle averaging needs J acting on the connection fiber "
            f"(rank {a.rank} vs J dimension {j.dimension})"
        )
    js = j(lat.sites)
    jx = js[lat.link_tail]
    h = lat.link_spacing
    steps = principal_log_unitaries(
        adjoint(jx) @ js[lat.link_head], what="J step on link"
    )
    img = lat.link_image
    # image value per unit coordinate of the image link; rescale to this link
    a_img = a.a[img] * (lat.link_image_sign * h[img] / h)[:, None, None]
    out = (adjoint(jx) @ a_img @ jx + steps / h[:, None, None]).conj()
    return LocalConnectionForm(out)


def average_connection(
    a: LocalConnectionForm, j: SymmetryData, lat: InvolutiveLattice
) -> LocalConnectionForm:
    """Equivariant average (A + A^J)/2 of a product-bundle connection.

    The output is an exact fixed point of the J-twist map (re-application
    reproduces it to roundoff) and passes the equivariance residual at
    discretization order.
    """
    twisted = j_conjugate_connection(a, j, lat)
    return LocalConnectionForm(0.5 * (a.a + twisted.a))
