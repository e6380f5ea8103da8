"""Wilson loops, continuum holonomies, and fixed-loop reality data.

Convention: the holonomy of a loop is the adjoint of the forward-ordered
link product, matching the path-ordered exponential of minus the connection
along the traversal.  Concatenation therefore composes as
hol(loop1 . loop2) = hol(loop2) @ hol(loop1), and reversal inverts.
Raw holonomies are only conjugation-well-defined; exported classifiers are
conjugation-invariant (traces, determinant signs).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._matrix import BRANCH_CUT_GUARD, adjoint, expms, frob, spectral_maps
from .berry import LinkField, ProductConnectionSpec
from .errors import BranchCutError, IndeterminateHolonomyError
from .lattice import InvolutiveLattice, LoopPath, fixed_loops
from .symmetry import SewingField

__all__ = [
    "HolonomyResult",
    "FixedLoopHolonomy",
    "wilson_loop",
    "continuum_holonomy",
    "fixed_loop_holonomies",
    "flat_moduli_holonomy",
]

SIGN_ROUND_MARGIN = 0.3


@dataclass(eq=False)
class HolonomyResult:
    """Loop holonomy with its loop and base point (None and -1 off the
    lattice)."""

    hol: np.ndarray  # (m, m) unitary
    loop: Optional[LoopPath]
    base: int

    @property
    def rank(self) -> int:
        return self.hol.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.hol))


@dataclass(eq=False)
class FixedLoopHolonomy:
    """Holonomy around a fixed-point loop, rotated into a real gauge."""

    holonomy: HolonomyResult
    reality_residual: float
    sign: int


def _holonomies(u: LinkField, loops: list, lat: InvolutiveLattice) -> np.ndarray:
    """(n_loops, m, m) adjoints of the ordered link products around loops."""
    return adjoint(u.products(*lat.cycle_table([lp.sites for lp in loops])))


def wilson_loop(
    u: LinkField, loop: LoopPath, lat: InvolutiveLattice
) -> HolonomyResult:
    """Holonomy of a loop of `lat`: the adjoint of the ordered link product
    along the one row of its link table (`InvolutiveLattice.cycle_table`).

    The pipeline reads only fixed loops (fixed_loop_holonomies); this is the
    holonomy of any loop of the lattice, which the demos compare with the
    continuum and flat-moduli holonomies."""
    return HolonomyResult(_holonomies(u, [loop], lat)[0], loop, loop.base)


def continuum_holonomy(
    spec: ProductConnectionSpec,
    curve: Callable[[float], tuple],
    steps: int = 256,
) -> HolonomyResult:
    """Path-ordered exponential of minus the connection along a closed curve.

    `curve(t)` returns (coords, velocity) for t in [0, 1]; midpoint
    evaluation makes the product second-order accurate in 1/steps.  The
    connection is evaluated in one call over all midpoints.
    """
    if steps < 16:
        raise ValueError("need at least 16 integration steps")
    dt = 1.0 / steps
    points = [curve((k + 0.5) * dt) for k in range(steps)]
    coords = np.array([np.atleast_1d(c) for c, _ in points], dtype=float)
    velocity = np.array([np.atleast_1d(v) for _, v in points], dtype=float)
    a = spec.connection_at(coords)  # (steps, dim, m, m)
    pulled = sum(a[:, mu] * velocity[:, mu, None, None] for mu in range(a.shape[1]))
    g = np.eye(spec.rank, dtype=complex)
    for step in expms(-pulled * dt):
        g = step @ g
    return HolonomyResult(g, None, -1)


def _round_sign(value: float) -> int:
    if abs(value - 1.0) < SIGN_ROUND_MARGIN:
        return +1
    if abs(value + 1.0) < SIGN_ROUND_MARGIN:
        return -1
    raise IndeterminateHolonomyError(
        f"holonomy determinant {value:+.4f} too far from +/-1 to round; "
        "refine the lattice"
    )


def fixed_loop_holonomies(
    u: LinkField, lat: InvolutiveLattice, w: SewingField
) -> list:
    """Wilson loops around every fixed-point loop, in a real frame gauge.

    One ordered product over the padded link table of all fixed loops gives
    every Wilson loop at once.  At a fixed base site the sewing matrix W is
    symmetric unitary; its principal square root g (g g^T = W; one
    spectral_maps call for all bases) rotates the frame into a gauge fixed
    by the time-reversal lift, where the holonomy of an equivariant
    connection is real orthogonal.  Returns one record per loop with the
    norm of the imaginary part as reality residual and the rounded
    determinant sign (the +/-1 rounded scalar at rank one), in loop order:
    the first loop with its sewing root at the branch cut or an
    indeterminate sign raises.
    """
    loops = fixed_loops(lat)
    at_bases = w.w[[loop.base for loop in loops]]
    roots, ev = spectral_maps(at_bases, lambda z: np.exp(0.5j * np.angle(z)))
    cut = (np.abs(ev + 1.0) < BRANCH_CUT_GUARD).any(axis=1)
    out = []
    for loop, g, at_cut, hol in zip(loops, roots, cut, _holonomies(u, loops, lat)):
        if at_cut:
            raise BranchCutError("sewing matrix eigenvalue at -1; refine the lattice")
        rotated = g.conj().T @ hol @ g
        sign = _round_sign(float(np.linalg.det(rotated).real))
        result = HolonomyResult(rotated, loop, loop.base)
        out.append(FixedLoopHolonomy(result, frob(rotated.imag), sign))
    return out


def flat_moduli_holonomy(a: float) -> complex:
    """Holonomy of the flat product connection i*a*dtheta on the reflection
    circle.

    Two parameters are gauge equivalent exactly when they differ by an
    integer, which is exactly when their holonomies exp(-2*pi*i*a) agree;
    the moduli of such flat connections is the circle R/Z.
    """
    return complex(np.exp(-2.0j * np.pi * a))
