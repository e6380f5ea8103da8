"""Model zoo: worked families with their symmetry data and analytic oracles.

Hamiltonian models return (HamiltonianFamily, SymmetryData); product-bundle
models return a ProductConnectionSpec carrying a closed-form connection and
the structure unitary J.  Every shipped model passes the Hamiltonian
symmetry check at shipped resolutions.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .berry import ProductConnectionSpec
from .errors import TruncationError
from .lattice import InvolutiveLattice, sphere_embedding
from .spectral import HamiltonianFamily
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
    connection and curvature; omitted ones fall back to central differences.
    """

    level: int = 0
    n_basis: int = 40
    delta: float = 1.0
    f: Callable[[float], float] = np.sin
    g: Callable[[float], float] = lambda t: 1.0
    df: Optional[Callable[[float], float]] = np.cos
    dg: Optional[Callable[[float], float]] = lambda t: 0.0
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

    def nu(self, coords) -> float:
        return self.delta + float(self.f(coords[1])) ** 2

    def phi(self, coords) -> float:
        return float(np.sin(coords[0])) * float(self.g(coords[1]))

    def _d2(self, fn, dfn, t):
        if dfn is not None:
            return float(dfn(t))
        h = 1e-6
        return (float(fn(t + h)) - float(fn(t - h))) / (2 * h)

    def grad_nu(self, coords) -> np.ndarray:
        t2 = coords[1]
        return np.array([0.0, 2.0 * float(self.f(t2)) * self._d2(self.f, self.df, t2)])

    def grad_phi(self, coords) -> np.ndarray:
        t1, t2 = coords[0], coords[1]
        return np.array(
            [
                np.cos(t1) * float(self.g(t2)),
                np.sin(t1) * self._d2(self.g, self.dg, t2),
            ]
        )


def hermite_eigenfunction(n: int, r, nu: float, phi: float):
    """Oscillator eigenfunction of level n at frequency nu and anomaly phi.

    psi_n(r) = C_n nu^(1/4) H_n(r sqrt(nu)) exp(-r^2 (nu + i phi)/2) with
    C_n = (n! 2^n sqrt(pi))^(-1/2).  Evaluated through the normalized
    Hermite-function recurrence, which absorbs the Gaussian and never
    overflows; conjugation flips the sign of the anomaly.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    if nu <= 0:
        raise ValueError("frequency must be positive")
    r = np.asarray(r, dtype=float)
    y = r * np.sqrt(nu)
    h = _normalized_hermite(n, y)
    return nu**0.25 * h * np.exp(-0.5j * phi * r**2)


def _normalized_hermite(n: int, y: np.ndarray) -> np.ndarray:
    """h_n(y) = C_n H_n(y) exp(-y^2/2) by stable upward recurrence."""
    h0 = np.pi**-0.25 * np.exp(-0.5 * y**2)
    if n == 0:
        return h0
    h1 = np.sqrt(2.0) * y * h0
    for k in range(2, n + 1):
        h0, h1 = h1, y * np.sqrt(2.0 / k) * h1 - np.sqrt((k - 1) / k) * h0
    return h1


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

    The matrix is assembled from ladder operators in one fixed reference
    basis (unit frequency, zero anomaly), so entrywise conjugation is the
    intended time-reversal conjugation and J = 1 with even parity.  Raises
    TruncationError when the level eigenvalue at the stiffest site misses
    nu * (level + 1/2) by more than 1e-6.
    """
    if not (lat.topology_tag == "torus2" and lat.involution_kind == "eta1"):
        raise ValueError(
            "oscillator model lives on a torus with the theta1 reflection "
            "(build_torus2(..., kind='eta1'))"
        )
    q2, p2, pq_qp = _ladder_blocks(p.n_basis)

    def evaluate(coords):
        nu = p.nu(coords)
        phi = p.phi(coords)
        return 0.5 * (p2 + phi * pq_qp + (nu * nu + phi * phi) * q2)

    ham = HamiltonianFamily(p.n_basis, evaluate, p.name)
    # truncation sanity at the extreme-frequency and extreme-anomaly sites
    nus = np.array([p.nu(c) for c in lat.sites])
    phis = np.array([p.phi(c) for c in lat.sites])
    for s in {int(np.argmax(nus)), int(np.argmax(np.abs(phis)))}:
        lam = np.linalg.eigvalsh(ham(lat.sites[s]))
        target = nus[s] * (p.level + 0.5)
        if abs(lam[p.level] - target) > 1e-6:
            raise TruncationError(
                f"level-{p.level} eigenvalue off by "
                f"{abs(lam[p.level] - target):.2e} at site {s}; increase n_basis"
            )
    return ham, SymmetryData.identity(p.n_basis)


def oscillator_reference_section(
    p: OscillatorParams, lat: InvolutiveLattice, n_nodes: int = 96
) -> np.ndarray:
    """Components of the analytic level-n section in the reference basis.

    Gauss-Hermite quadrature of the overlaps of the site eigenfunction with
    the reference-basis functions; used to align numeric frames with the
    analytic gauge before comparing connection components pointwise.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    bare = weights * np.exp(nodes**2)
    basis = np.stack(
        [hermite_eigenfunction(jn, nodes, 1.0, 0.0).real for jn in range(p.n_basis)]
    )
    ref = np.empty((lat.n_sites, p.n_basis), dtype=complex)
    for s in range(lat.n_sites):
        psi = hermite_eigenfunction(p.level, nodes, p.nu(lat.sites[s]), p.phi(lat.sites[s]))
        ref[s] = basis @ (bare * psi)
    return ref


def oscillator_analytic_connection(p: OscillatorParams, coords) -> np.ndarray:
    """Closed-form connection components -i (2n+1)/(4 nu) d(phi), per direction."""
    coords = np.asarray(coords, dtype=float)
    coef = -1.0j * (2 * p.level + 1) / (4.0 * p.nu(coords))
    return coef * p.grad_phi(coords)


def oscillator_analytic_curvature(p: OscillatorParams, coords) -> complex:
    """Closed-form curvature coefficient i (2n+1)/(4 nu^2) of d(nu)^d(phi)."""
    coords = np.asarray(coords, dtype=float)
    return 1.0j * (2 * p.level + 1) / (4.0 * p.nu(coords) ** 2)


def oscillator_curvature_component(p: OscillatorParams, coords) -> complex:
    """Curvature two-form component in the angular chart (dtheta1 ^ dtheta2)."""
    dnu = p.grad_nu(coords)
    dphi = p.grad_phi(coords)
    return oscillator_analytic_curvature(p, coords) * (
        dnu[0] * dphi[1] - dnu[1] * dphi[0]
    )


def oscillator_plaquette_flux(
    p: OscillatorParams, corner, h1: float, h2: float
) -> complex:
    """Analytic curvature integrated over one rectangular plaquette.

    3x3 Simpson rule, fourth-order accurate, so a comparison against the
    discrete plaquette flux isolates the lattice discretization error
    instead of the midpoint-versus-cell-average offset.
    """
    xs = corner[0] + np.array([0.0, 0.5, 1.0]) * h1
    ys = corner[1] + np.array([0.0, 0.5, 1.0]) * h2
    wts = np.array([1.0, 4.0, 1.0])
    acc = 0.0j
    for i, x in enumerate(xs):
        for k, y in enumerate(ys):
            acc += wts[i] * wts[k] * oscillator_curvature_component(p, (x, y))
    return acc / 36.0 * h1 * h2


# -- product-bundle line models ------------------------------------------


def model_mobius_circle() -> ProductConnectionSpec:
    """Nontrivial Real line over the trivial-involution circle.

    J(theta) = exp(i theta) twists the product structure; the unique
    equivariant connection is -i/2 dtheta, flat with full-loop holonomy -1.
    """
    j = SymmetryData(
        1, +1, lambda c: np.array([[np.exp(1.0j * c[0])]]), "mobius-J"
    )
    return ProductConnectionSpec(
        rank=1,
        connection=lambda c: np.array([[[-0.5j]]]),
        j=j,
        base_tag="circle-trivial",
        name="mobius_circle",
    )


def model_mobius_pullback_torus() -> ProductConnectionSpec:
    """Pullback of the Mobius line to the theta2-conjugation torus.

    J(z1, z2) = z1 with connection -i/2 dtheta1: flat (Chern number 0) with
    holonomy -1 around each of the two fixed loops.
    """
    j = SymmetryData(
        1, +1, lambda c: np.array([[np.exp(1.0j * c[0])]]), "mobius-pullback-J"
    )
    return ProductConnectionSpec(
        rank=1,
        connection=lambda c: np.array([[[-0.5j]], [[0.0j]]]),
        j=j,
        base_tag="torus2-eta",
        name="mobius_pullback_torus",
    )


def model_trivial_line(base_tag: str, dim: int = 1) -> ProductConnectionSpec:
    """Product line with J = 1 and zero connection on any supported base."""
    return ProductConnectionSpec(
        rank=1,
        connection=lambda c: np.zeros((dim, 1, 1), dtype=complex),
        j=SymmetryData.identity(1),
        base_tag=base_tag,
        name="trivial_line",
    )


def model_flat_line(a: float) -> ProductConnectionSpec:
    """Flat line i*a*dtheta on the reflection circle (holonomy exp(-2*pi*i*a))."""
    return ProductConnectionSpec(
        rank=1,
        connection=lambda c: np.array([[[1.0j * a]]]),
        j=SymmetryData.identity(1),
        base_tag="circle-reflection",
        name="flat_line",
    )


# -- degree-k sphere family ----------------------------------------------


def _winding_factor(k: int, x1: float, x2: float) -> complex:
    # negative degrees use the conjugate map, which is bounded at the poles
    # where the literal inverse power diverges
    return (x1 + 1j * np.sign(k) * x2) ** abs(k)


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
    sign, power = (1 if k > 0 else -1), abs(k)

    def evaluate(coords):
        # scalar form of sphere_embedding and _winding_factor: H is
        # [[x0, conj(w)], [w, -x0]]
        t, phi = float(coords[0]), float(coords[1])
        sin_t = math.sin(t)
        x0 = math.cos(t)
        w = complex(sin_t * math.cos(phi), sign * sin_t * math.sin(phi)) ** power
        return np.array([[x0, w.conjugate()], [w, -x0]], dtype=complex)

    return (
        HamiltonianFamily(2, evaluate, f"degree_{k}_sphere"),
        SymmetryData.identity(2),
    )


def _d_vector(k: int, coords) -> np.ndarray:
    x0, x1, x2 = sphere_embedding(coords)
    w = _winding_factor(k, x1, x2)
    d = np.array([w.real, w.imag, x0])
    return d / np.linalg.norm(d)


def degree_oracle(k: int, lat: InvolutiveLattice) -> int:
    """Brouwer degree of the unit d-vector map, by summed solid angles.

    Splits each plaquette into triangles oriented with the lattice, maps the
    corners through the d-vector, and accumulates signed spherical-triangle
    solid angles; the total is 4*pi times the degree.  Fully independent of
    the connection/curvature machinery.
    """
    total = 0.0
    for verts in lat.plaquette_vertices:
        imgs = [_d_vector(k, lat.sites[v]) for v in verts]
        for a, b in zip(range(1, len(imgs) - 1), range(2, len(imgs))):
            total += _solid_angle(imgs[0], imgs[a], imgs[b])
    degree = total / (4.0 * np.pi)
    rounded = int(round(degree))
    if abs(degree - rounded) > 1e-6:
        raise ArithmeticError(
            f"solid angles sum to {degree:.6f} * 4pi, not an integer"
        )
    return rounded


def _solid_angle(a, b, c) -> float:
    num = np.dot(a, np.cross(b, c))
    den = 1.0 + np.dot(a, b) + np.dot(b, c) + np.dot(c, a)
    return 2.0 * np.arctan2(num, den)


# -- direct sums -----------------------------------------------------------


def direct_sum_specs(
    s1: ProductConnectionSpec, s2: ProductConnectionSpec
) -> ProductConnectionSpec:
    """Block sum of two product-bundle models over the same base."""
    if s1.base_tag != s2.base_tag:
        raise ValueError("direct sum needs a common base")
    m1, m2 = s1.rank, s2.rank

    def connection(coords):
        a1 = s1.connection_at(coords)
        a2 = s2.connection_at(coords)
        dim = a1.shape[0]
        out = np.zeros((dim, m1 + m2, m1 + m2), dtype=complex)
        out[:, :m1, :m1] = a1
        out[:, m1:, m1:] = a2
        return out

    def j(coords):
        out = np.zeros((m1 + m2, m1 + m2), dtype=complex)
        out[:m1, :m1] = s1.j(coords)
        out[m1:, m1:] = s2.j(coords)
        return out

    if s1.j.parity != s2.j.parity:
        raise ValueError("direct sum needs matching parity")
    return ProductConnectionSpec(
        rank=m1 + m2,
        connection=connection,
        j=SymmetryData(m1 + m2, s1.j.parity, j, "sum-J"),
        base_tag=s1.base_tag,
        name=f"{s1.name}+{s2.name}",
    )


def direct_sum_hamiltonians(
    pair1: tuple[HamiltonianFamily, SymmetryData],
    pair2: tuple[HamiltonianFamily, SymmetryData],
) -> tuple[HamiltonianFamily, SymmetryData]:
    """Block-diagonal sum of two Hamiltonian models with their symmetries."""
    h1, j1 = pair1
    h2, j2 = pair2
    if j1.parity != j2.parity:
        raise ValueError("direct sum needs matching parity")
    n1, n2 = h1.dimension, h2.dimension

    def ham(coords):
        out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        out[:n1, :n1] = h1(coords)
        out[n1:, n1:] = h2(coords)
        return out

    def sym(coords):
        out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        out[:n1, :n1] = j1(coords)
        out[n1:, n1:] = j2(coords)
        return out

    return (
        HamiltonianFamily(n1 + n2, ham, f"{h1.name}+{h2.name}"),
        SymmetryData(n1 + n2, j1.parity, sym, "sum-J"),
    )
