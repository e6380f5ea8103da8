"""Model zoo: worked families with their symmetry data and analytic oracles.

Hamiltonian models return (HamiltonianFamily, SymmetryData); product-bundle
models return a ProductConnectionSpec carrying a closed-form connection and
the structure unitary J.  Every shipped model passes the Hamiltonian
symmetry check at shipped resolutions.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .berry import ProductConnectionSpec
from .errors import TruncationError
from .lattice import InvolutiveLattice, sphere_embedding
from .spectral import HamiltonianFamily, constant
from .symmetry import SymmetryData

__all__ = [
    "OscillatorParams",
    "hermite_eigenfunction",
    "model_oscillator",
    "oscillator_reference_section",
    "oscillator_analytic_connection",
    "oscillator_analytic_curvature",
    "model_mobius_circle",
    "model_degree_k_sphere",
    "degree_oracle",
    "model_mobius_pullback_torus",
    "model_trivial_line",
    "model_flat_line",
    "direct_sum_specs",
    "direct_sum_hamiltonians",
]


# -- generalized oscillator ----------------------------------------------


@dataclass
class OscillatorParams:
    """Parameters of the frequency/anomaly oscillator family on the torus.

    The frequency is nu(theta1, theta2) = delta + f(theta2)^2 > 0 and the
    anomaly is phi(theta1, theta2) = sin(theta1) * g(theta2), odd in theta1
    so the family is symmetric under theta1 -> -theta1 with entrywise
    conjugation.  df/dg are the derivatives of f and g used by the analytic
    connection and curvature.  f, g and their derivatives act elementwise on arrays (constants are
    broadcast), and nu, phi and their gradients read coords[..., mu], so
    they take one (2,) point or a (..., 2) coordinate block.
    """

    level: int = 0
    n_basis: int = 40
    delta: float = 1.0
    f: Callable[[float], float] = np.sin
    g: Callable[[float], float] = lambda t: 1.0
    df: Callable[[float], float] = np.cos
    dg: Callable[[float], float] = lambda t: 0.0
    name: str = "oscillator"

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.n_basis < self.level + 20:
            raise TruncationError(
                f"n_basis {self.n_basis} too small for level {self.level}; "
                f"need at least {self.level + 20}"
            )

    def nu(self, coords) -> np.ndarray:
        t2 = np.asarray(coords, dtype=float)[..., 1]
        return self.delta + _on(self.f, t2) ** 2

    def phi(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        return np.sin(c[..., 0]) * _on(self.g, c[..., 1])

    def grad_nu(self, coords) -> np.ndarray:
        t2 = np.asarray(coords, dtype=float)[..., 1]
        slope = 2.0 * _on(self.f, t2) * _on(self.df, t2)
        return np.stack([np.zeros_like(slope), slope], axis=-1)

    def grad_phi(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        t1, t2 = c[..., 0], c[..., 1]
        return np.stack(
            [np.cos(t1) * _on(self.g, t2), np.sin(t1) * _on(self.dg, t2)],
            axis=-1,
        )


def _on(fn, t) -> np.ndarray:
    """fn(t) as a float array shaped like t (fn may return a constant)."""
    return np.broadcast_to(np.asarray(fn(t), dtype=float), np.shape(t))


def hermite_eigenfunction(n: int, r, nu: float, phi: float):
    """Oscillator eigenfunction of level n at frequency nu and anomaly phi.

    psi_n(r) = C_n nu^(1/4) H_n(r sqrt(nu)) exp(-r^2 (nu + i phi)/2) with
    C_n = (n! 2^n sqrt(pi))^(-1/2).  Evaluated through the normalized
    Hermite-function recurrence, which absorbs the Gaussian and never
    overflows; conjugation flips the sign of the anomaly.  r, nu and phi
    broadcast against each other.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if np.any(np.asarray(nu) <= 0):
        raise ValueError("frequency must be positive")
    r = np.asarray(r, dtype=float)
    y = r * np.sqrt(nu)
    h = _normalized_hermite(n, y)[n]
    return nu**0.25 * h * np.exp(-0.5j * phi * r**2)


def _normalized_hermite(n: int, y: np.ndarray) -> np.ndarray:
    """h_0(y), ..., h_n(y) stacked, h_k = C_k H_k(y) exp(-y^2/2), by one
    stable upward recurrence."""
    h0 = np.pi**-0.25 * np.exp(-0.5 * y**2)
    h = [h0, np.sqrt(2.0) * y * h0][: n + 1]
    for k in range(2, n + 1):
        h.append(y * np.sqrt(2.0 / k) * h[k - 1] - np.sqrt((k - 1) / k) * h[k - 2])
    return np.stack(h)


def _ladder_blocks(n_basis: int):
    k = np.arange(1, n_basis)
    a = np.diag(np.sqrt(k), 1)  # lowering
    num = np.diag(np.arange(n_basis, dtype=float))
    a2 = a @ a
    adag2 = a2.T
    q2 = 0.5 * (a2 + adag2 + 2.0 * num + np.eye(n_basis))
    p2 = 0.5 * (-a2 - adag2 + 2.0 * num + np.eye(n_basis))
    pq_qp = 1.0j * (adag2 - a2)  # pq + qp in the reference basis
    return q2, p2, pq_qp


def model_oscillator(
    p: OscillatorParams, lat: InvolutiveLattice
) -> tuple[HamiltonianFamily, SymmetryData]:
    """Truncated oscillator family over a theta1-reflection torus.

    H = p^2/2 + phi (pq + qp)/2 + (nu^2 + phi^2) q^2/2, an affine family
    (see HamiltonianFamily): the terms p^2/2, q^2/2 and (pq + qp)/2 with the
    coefficients 1, nu^2 + phi^2 and phi.  The terms come from ladder
    operators in one fixed reference basis (unit frequency, zero anomaly),
    so entrywise conjugation is the intended time-reversal conjugation and
    J = 1 with even parity.  Raises TruncationError when the level
    eigenvalue at the stiffest site misses nu * (level + 1/2) by more than
    1e-6.
    """
    _require_eta1(lat)
    q2, p2, pq_qp = _ladder_blocks(p.n_basis)

    def coefficients(coords):
        nu, phi = p.nu(coords), p.phi(coords)
        return np.stack([np.ones_like(nu), nu * nu + phi * phi, phi], axis=1)

    terms = 0.5 * np.stack([p2, q2, pq_qp])
    ham = HamiltonianFamily(p.n_basis, coefficients, p.name, terms)
    # truncation sanity at the extreme-frequency and extreme-anomaly sites
    nus, phis = p.nu(lat.sites), p.phi(lat.sites)
    sites = list({int(np.argmax(nus)), int(np.argmax(np.abs(phis)))})
    for s, lam in zip(sites, np.linalg.eigvalsh(ham(lat.sites[sites]))):
        target = nus[s] * (p.level + 0.5)
        if abs(lam[p.level] - target) > 1e-6:
            raise TruncationError(
                f"level-{p.level} eigenvalue off by "
                f"{abs(lam[p.level] - target):.2e} at site {s}; increase n_basis"
            )
    return ham, SymmetryData.identity(p.n_basis)


def oscillator_reference_section(
    p: OscillatorParams, lat: InvolutiveLattice
) -> np.ndarray:
    """Components of the analytic level-n section in the reference basis.

    Gauss-Hermite quadrature of the overlaps of the site eigenfunction with
    the reference-basis functions; used to align numeric frames with the
    analytic gauge before comparing connection components pointwise.

    The section is Real, psi(tau x) = conj psi(x) (Theta psi = psi tau with
    J = 1): on the theta1-reflection torus, the only lattice accepted
    (ValueError as in model_oscillator), tau keeps theta2 and negates theta1,
    so it keeps nu, flips the odd phi, and the basis is real.  Rows are
    computed at the orbit representatives s <= tau(s) only, and each image
    tau(s) takes the conjugate row, so a frame aligned to it is Real.
    """
    _require_eta1(lat)
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    bare = weights * np.exp(nodes**2)
    basis = _normalized_hermite(p.n_basis - 1, nodes)
    tau = lat.involution
    reps = np.flatnonzero(np.arange(tau.size) <= tau)
    nus, nu_at = np.unique(p.nu(lat.sites[reps]), return_inverse=True)
    phis, phi_at = np.unique(p.phi(lat.sites[reps]), return_inverse=True)
    nus, phis = nus[:, None], phis[:, None]
    # per distinct nu and phi, with hermite_eigenfunction's products, so a
    # representative's row is bit for bit its own evaluation's
    radial = nus**0.25 * _normalized_hermite(p.level, nodes * np.sqrt(nus))[p.level]
    twist = np.exp(-0.5j * phis * nodes**2)
    rows = (bare * (radial[nu_at] * twist[phi_at])) @ basis.T
    section = np.empty((tau.size, p.n_basis), dtype=complex)
    section[tau[reps]] = rows.conj()
    section[reps] = rows  # fixed sites keep their row
    return section


def _require_eta1(lat: InvolutiveLattice) -> None:
    if not (lat.topology_tag == "torus2" and lat.involution_kind == "eta1"):
        raise ValueError(
            "oscillator model lives on a torus with the theta1 reflection "
            "(build_torus2(..., kind='eta1'))"
        )


# The closed forms below take one (2,) point or a (..., 2) coordinate block.


def oscillator_analytic_connection(p: OscillatorParams, coords) -> np.ndarray:
    """Closed-form connection components -i (2n+1)/(4 nu) d(phi), per direction."""
    coef = -1.0j * (2 * p.level + 1) / (4.0 * p.nu(coords))
    return np.expand_dims(coef, -1) * p.grad_phi(coords)


def oscillator_analytic_curvature(p: OscillatorParams, coords):
    """Closed-form curvature coefficient i (2n+1)/(4 nu^2) of d(nu)^d(phi)."""
    return 1.0j * (2 * p.level + 1) / (4.0 * p.nu(coords) ** 2)


def oscillator_curvature_component(p: OscillatorParams, coords):
    """Curvature two-form component in the angular chart (dtheta1 ^ dtheta2)."""
    dnu = p.grad_nu(coords)
    dphi = p.grad_phi(coords)
    return oscillator_analytic_curvature(p, coords) * (
        dnu[..., 0] * dphi[..., 1] - dnu[..., 1] * dphi[..., 0]
    )


def oscillator_plaquette_flux(p: OscillatorParams, corner, h1: float, h2: float):
    """Analytic curvature integrated over rectangular plaquettes.

    `corner` is one lower-left corner (2,) or a block of them.  3x3 Simpson
    rule, fourth-order accurate, so a comparison against the discrete
    plaquette flux isolates the lattice discretization error instead of the
    midpoint-versus-cell-average offset.
    """
    corner = np.asarray(corner, dtype=float)
    nodes = ((0.0, 1.0), (0.5, 4.0), (1.0, 1.0))  # (offset, Simpson weight)
    acc = 0.0j
    for x, wx in nodes:
        for y, wy in nodes:
            point = corner + np.array([x * h1, y * h2])
            acc = acc + wx * wy * oscillator_curvature_component(p, point)
    return acc / 36.0 * h1 * h2


# -- product-bundle line models ------------------------------------------


def model_mobius_circle() -> ProductConnectionSpec:
    """Nontrivial Real line over the trivial-involution circle.

    J(theta) = exp(i theta) twists the product structure; the unique
    equivariant connection is -i/2 dtheta, flat with full-loop holonomy -1.
    """
    return ProductConnectionSpec(
        rank=1,
        connection=constant(np.full((1, 1, 1), -0.5j)),
        j=SymmetryData(1, +1, _mobius_j, "mobius-J"),
        base_tag="circle-trivial",
        name="mobius_circle",
    )


def model_mobius_pullback_torus() -> ProductConnectionSpec:
    """Pullback of the Mobius line to the theta2-conjugation torus.

    J(z1, z2) = z1 with connection -i/2 dtheta1: flat (Chern number 0) with
    holonomy -1 around each of the two fixed loops.
    """
    return ProductConnectionSpec(
        rank=1,
        connection=constant(np.array([[[-0.5j]], [[0.0j]]])),
        j=SymmetryData(1, +1, _mobius_j, "mobius-pullback-J"),
        base_tag="torus2-eta",
        name="mobius_pullback_torus",
    )


def _mobius_j(coords):
    """J = exp(i theta1), the twist of the Mobius line and its pullback."""
    return np.exp(1.0j * coords[:, 0])[:, None, None]


def model_trivial_line(base_tag: str, dim: int = 1) -> ProductConnectionSpec:
    """Product line with J = 1 and zero connection on any supported base."""
    return ProductConnectionSpec(
        rank=1,
        connection=constant(np.zeros((dim, 1, 1), dtype=complex)),
        j=SymmetryData.identity(1),
        base_tag=base_tag,
        name="trivial_line",
    )


def model_flat_line(a: float) -> ProductConnectionSpec:
    """Flat line i*a*dtheta on the reflection circle (holonomy exp(-2*pi*i*a))."""
    return ProductConnectionSpec(
        rank=1,
        connection=constant(np.full((1, 1, 1), 1.0j * a)),
        j=SymmetryData.identity(1),
        base_tag="circle-reflection",
        name="flat_line",
    )


# -- degree-k sphere family ----------------------------------------------


def _winding_factor(k: int, x1: float, x2: float) -> complex:
    # negative degrees use the conjugate map, which is bounded at the poles
    # where the literal inverse power diverges; the power ufunc multiplies
    # out integer powers exactly as Python's complex ** int does
    return np.power(x1 + 1j * np.sign(k) * x2, abs(k))


def model_degree_k_sphere(k: int) -> tuple[HamiltonianFamily, SymmetryData]:
    """Two-band sphere family whose lower band carries Chern number k.

    H = Re(w) sx + Im(w) sy + x0 sz with w = (x1 + i sgn(k) x2)^|k| over the
    reflection sphere; entrywise conjugation with J = 1 is the symmetry, and
    the band gap 2|d| is bounded below on the whole sphere.  Conjugating the
    winding factor reverses the degree, so k and -k give opposite Chern
    numbers.
    """
    if k == 0:
        raise ValueError("degree must be nonzero")

    def evaluate(coords):
        x0, x1, x2 = np.moveaxis(sphere_embedding(coords), -1, 0)
        w = _winding_factor(k, x1, x2)
        out = np.empty((len(coords), 2, 2), dtype=complex)
        out[:, 0, 0], out[:, 0, 1] = x0, w.conj()
        out[:, 1, 0], out[:, 1, 1] = w, -x0
        return out

    return (
        HamiltonianFamily(2, evaluate, f"degree_{k}_sphere"),
        SymmetryData.identity(2),
    )


def degree_oracle(k: int, lat: InvolutiveLattice) -> int:
    """Brouwer degree of the unit d-vector map, by summed solid angles.

    Maps the sites through the d-vector, fans each plaquette into triangles
    (corner 0, a, a + 1) oriented with the lattice, and sums their signed
    spherical-triangle solid angles; the total is 4*pi times the degree.
    Fully independent of the connection/curvature machinery.
    """
    degree = _degree_sum(k, lat)
    rounded = int(round(degree))
    if abs(degree - rounded) > 1e-6:
        raise ArithmeticError(
            f"solid angles sum to {degree:.6f} * 4pi, not an integer"
        )
    return rounded


def _degree_sum(k: int, lat: InvolutiveLattice) -> float:
    """The solid-angle sum of degree_oracle over 4*pi, before rounding."""
    x0, x1, x2 = np.moveaxis(sphere_embedding(lat.sites), -1, 0)
    w = _winding_factor(k, x1, x2)
    d = np.stack([w.real, w.imag, x0], axis=-1)
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    corners = lat.plaquette_corners
    # the fan triangles (0, a, a + 1); padding (-1) gathers a site, dropped
    a, b, c = d[corners[:, :1]], d[corners[:, 1:-1]], d[corners[:, 2:]]
    num = np.sum(a * np.cross(b, c), axis=-1)
    den = 1.0 + np.sum(a * b + b * c + c * a, axis=-1)
    angles = 2.0 * np.arctan2(num, den)[corners[:, 2:] >= 0]
    return float(np.sum(angles)) / (4.0 * np.pi)


# -- direct sums -----------------------------------------------------------


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal sum of two stacks of square matrices, entry by entry."""
    p, q = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-2] + (p + q, p + q), dtype=complex)
    out[..., :p, :p] = a
    out[..., p:, p:] = b
    return out


def _sum_j(j1: SymmetryData, j2: SymmetryData) -> SymmetryData:
    """J1 + J2 block-diagonally; constant when both summands are."""
    if j1.parity != j2.parity:
        raise ValueError("direct sum needs matching parity")
    if j1.matrix is not None and j2.matrix is not None:
        matrix = _block_diag(j1.matrix, j2.matrix)
        return SymmetryData.constant(matrix, j1.parity, "sum-J")
    n = j1.dimension + j2.dimension
    return SymmetryData(n, j1.parity, lambda c: _block_diag(j1(c), j2(c)), "sum-J")


def direct_sum_specs(
    s1: ProductConnectionSpec, s2: ProductConnectionSpec
) -> ProductConnectionSpec:
    """Block sum of two product-bundle models over the same base."""
    if s1.base_tag != s2.base_tag:
        raise ValueError("direct sum needs a common base")
    return ProductConnectionSpec(
        rank=s1.rank + s2.rank,
        connection=lambda c: _block_diag(s1.connection_at(c), s2.connection_at(c)),
        j=_sum_j(s1.j, s2.j),
        base_tag=s1.base_tag,
        name=f"{s1.name}+{s2.name}",
    )


def direct_sum_hamiltonians(
    pair1: tuple[HamiltonianFamily, SymmetryData],
    pair2: tuple[HamiltonianFamily, SymmetryData],
) -> tuple[HamiltonianFamily, SymmetryData]:
    """Block-diagonal sum of two Hamiltonian models with their symmetries."""
    (h1, j1), (h2, j2) = pair1, pair2
    n = h1.dimension + h2.dimension
    return (
        HamiltonianFamily(
            n, lambda c: _block_diag(h1(c), h2(c)), f"{h1.name}+{h2.name}"
        ),
        _sum_j(j1, j2),
    )
