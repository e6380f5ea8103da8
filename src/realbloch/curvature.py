"""Plaquette field strengths, Chern-Weil densities, and Chern numbers.

On a closed discretized surface the sum of principal-branch plaquette flux
logarithms is 2*pi*i times an integer, so lattice Chern numbers are exactly
quantized away from branch events.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._matrix import adjoint, principal_log_unitaries
from .berry import LinkField
from .errors import UnsupportedBaseError
from .lattice import InvolutiveLattice, mirror_rows, orbit_split
from .spectral import Frame, ProjectionFamily

__all__ = [
    "CurvatureField",
    "plaquette_curvature",
    "chern_weil_density",
    "chern_number",
    "curvature_parity_check",
    "gb_curvature_direct",
]

QUANTIZATION_WARN = 1e-6


@dataclass(eq=False)
class CurvatureField:
    """Per-plaquette anti-Hermitian total flux matrices, in plaquette order."""

    f: np.ndarray  # (n_plaquettes, m, m)

    @property
    def rank(self) -> int:
        return self.f.shape[2]


def plaquette_curvature(
    u: LinkField, lat: InvolutiveLattice, mirrored=None
) -> CurvatureField:
    """Principal log of the ordered link product around each plaquette.

    Raises BranchCutError naming the first plaquette whose holonomy has an
    eigenvalue at -1 (advice: refine the lattice).  At rank one a plaquette
    whose corners are `mirrored` (see link_field) takes the flux of its
    image when that is the lower plaquette of the orbit.  Above rank one an
    image's cycle may start at another corner, which conjugates its flux.
    """
    image = lat.plaquette_image
    real = None if u.rank > 1 else mirrored
    rows, copies = orbit_split(image, real, lat.plaquette_corners.T)
    hol = u.products(lat.plaquette_links[rows], lat.plaquette_signs[rows])
    ids = np.arange(lat.n_plaquettes)[rows]
    f = principal_log_unitaries(hol, what="plaquette", ids=ids)
    return CurvatureField(mirror_rows(f, rows, copies, image, lat.plaquette_image_sign))


def chern_weil_density(curv: CurvatureField, k: int) -> np.ndarray:
    """Degree-k invariant polynomial of the flux, per plaquette.

    C_k is the coefficient of t^(m-k) in det(t*1 - X), X = F/(2*pi*i), taken
    from the power traces p_i = tr X^i by Newton's identities,
    C_k = -(p_1 C_(k-1) + ... + p_k C_0) / k with C_0 = 1.  For k = 1 this
    is (i/2/pi) tr F, real by anti-Hermiticity.  Densities with k >= 2
    integrate to zero on 2d bases and are provided as polynomial values.
    """
    m = curv.rank
    if not 1 <= k <= m:
        raise ValueError(f"polynomial degree {k} outside 1..{m}")
    x = curv.f / (2.0j * np.pi)
    power, traces, c = x, [], [1.0]
    for d in range(1, k + 1):
        if d > 1:
            power = power @ x
        traces.append(np.trace(power, axis1=1, axis2=2))
        c.append(-sum(p * c[d - 1 - i] for i, p in enumerate(traces)) / d)
    return c[k].real


def chern_number(curv: CurvatureField, lat: InvolutiveLattice):
    """Total first Chern number: (real value, rounded integer).

    For a curvature built from a link field (plaquette_curvature) on a
    closed surface the principal plaquette logs telescope, so the value is
    an integer up to roundoff on any lattice, an under-resolved one
    included: the residual cannot tell an aliased verdict from a right one.
    A residual above QUANTIZATION_WARN warns; only a curvature not built
    from link variables, such as gb_curvature_direct, gets there.
    """
    if lat.dim != 2 or lat.n_plaquettes == 0:
        raise UnsupportedBaseError("Chern numbers need a 2-dimensional lattice")
    value = math.fsum(chern_weil_density(curv, 1))
    rounded = int(round(value))
    if abs(value - rounded) > QUANTIZATION_WARN:
        warnings.warn(
            f"Chern number {value:.3e} is {abs(value - rounded):.2e} from an "
            "integer; refine the lattice or check the gap",
            stacklevel=2,
        )
    return value, rounded


def curvature_parity_check(curv: CurvatureField, lat: InvolutiveLattice) -> float:
    """Parity defect of the flux trace under the involution.

    Max over plaquettes of | tr F at tau(p), traversed with the
    involution-induced orientation, minus conj(tr F_p) |.  Small residual
    certifies the first Chern density odd/even as the involution
    reverses/preserves orientation.
    """
    tr = np.trace(curv.f, axis1=1, axis2=2)
    defect = np.abs(lat.plaquette_image_sign * tr[lat.plaquette_image] - tr.conj())
    return float(defect.max(initial=0.0))


def gb_curvature_direct(
    p: ProjectionFamily, lat: InvolutiveLattice, frame: Frame
) -> CurvatureField:
    """Curvature from finite differences of the projector itself.

    Per plaquette, the antisymmetrized P dP dP built from the projector
    steps along the two boundary edges at the anchor vertex, compressed to
    the frame block.  Cross-validates the link-product curvature: the two
    agree to first order in spacing under refinement.
    """
    if lat.dim != 2:
        raise UnsupportedBaseError("direct curvature needs a 2-dimensional lattice")
    verts = lat.plaquette_corners
    size = np.count_nonzero(verts >= 0, axis=1)
    v0, v1, vlast = verts[:, 0], verts[:, 1], verts[np.arange(len(verts)), size - 1]
    p0 = p.projectors[v0]
    d1, d2 = p.projectors[v1] - p0, p.projectors[vlast] - p0
    core = p0 @ (d1 @ d2 - d2 @ d1)
    core[size == 3] *= 0.5  # a triangle: half the parallelogram
    psi = frame.columns[v0]
    return CurvatureField(adjoint(psi) @ core @ psi)
