"""Discretized involutive base manifolds.

A lattice carries sites with angular coordinates, directed links grouped by
direction, oriented plaquettes that tile the closed surface, and an
involution stored as an exact site permutation.  Fixed-point detection and
all involution bookkeeping are therefore integer-exact; no floating-point
point maps are ever compared.

Supported bases: the circle with trivial / reflection / antipodal
involutions, the 2-torus with trivial / theta2-conjugation ("eta") /
theta1-conjugation ("eta1") / shear ("xi") involutions, and the 2-sphere
with the azimuthal reflection.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDiscretizationError

__all__ = [
    "InvolutiveLattice",
    "LoopPath",
    "build_circle",
    "build_torus2",
    "build_sphere2",
    "fixed_loops",
    "map_loop",
]


@dataclass(frozen=True)
class LoopPath:
    """Closed lattice path given by its vertex cycle.

    Consecutive sites (including the wrap from the last back to the first)
    must be joined by lattice links; the base point is ``sites[0]``.
    """

    sites: tuple[int, ...]

    @property
    def base(self) -> int:
        return self.sites[0]

    def __len__(self) -> int:
        return len(self.sites)

    def steps(self):
        n = len(self.sites)
        for k in range(n):
            yield self.sites[k], self.sites[(k + 1) % n]

    def reversed(self) -> "LoopPath":
        return LoopPath((self.sites[0],) + tuple(reversed(self.sites[1:])))


@dataclass
class InvolutiveLattice:
    """Immutable discretized involutive manifold.

    Plaquettes are stored as vertex cycles.  Their oriented boundaries are
    built once per lattice as the padded plaquette table ``plaquette_links``
    / ``plaquette_signs`` of shape (n_plaquettes, width), width being the
    longest boundary (4 on the shipped lattices): entry ``k`` of row ``p``
    is the k-th boundary link and its traversal sign, and sign 0 pads a
    shorter boundary with the identity.  ``plaquettes[p]`` lists the same
    boundary as rows ``(link_id, sign)`` without padding.  ``link_image`` /
    ``plaquette_image`` record the exact action of the involution on links
    and plaquettes together with direction / orientation signs.
    """

    topology_tag: str
    involution_kind: str
    sites: np.ndarray
    link_tail: np.ndarray
    link_head: np.ndarray
    link_mu: np.ndarray
    link_spacing: np.ndarray
    plaquette_vertices: list
    plaquette_centers: np.ndarray
    plaquette_areas: np.ndarray
    involution: np.ndarray
    orientation_flip: bool
    plaquette_links: np.ndarray = field(init=False, repr=False)
    plaquette_signs: np.ndarray = field(init=False, repr=False)
    fixed_sites: np.ndarray = field(init=False)
    link_image: np.ndarray = field(init=False)
    link_image_sign: np.ndarray = field(init=False)
    plaquette_image: np.ndarray = field(init=False)
    plaquette_image_sign: np.ndarray = field(init=False)
    _directed: dict = field(init=False, repr=False)

    def __post_init__(self):
        tau = self.involution
        if not np.array_equal(tau[tau], np.arange(self.n_sites)):
            raise InvalidDiscretizationError("involution is not an exact involution")
        self.fixed_sites = np.flatnonzero(tau == np.arange(self.n_sites))
        self._directed = {
            (int(a), int(b)): i
            for i, (a, b) in enumerate(zip(self.link_tail, self.link_head))
        }
        self._build_plaquette_table()
        self._build_link_image()
        self._build_plaquette_image()
        self._check_tiling()

    # -- basic queries ------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def dim(self) -> int:
        return self.sites.shape[1]

    @property
    def n_links(self) -> int:
        return self.link_tail.shape[0]

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquette_vertices)

    @property
    def plaquettes(self) -> list:
        """Oriented boundary of every plaquette as (link_id, sign) rows."""
        return [
            np.column_stack([links[signs != 0], signs[signs != 0]])
            for links, signs in zip(self.plaquette_links, self.plaquette_signs)
        ]

    @property
    def base_tag(self) -> str:
        return f"{self.topology_tag}-{self.involution_kind}"

    def directed_link(self, a: int, b: int) -> tuple[int, int]:
        """Canonical link id and traversal sign of the directed link a->b."""
        hit = self._directed.get((a, b))
        if hit is not None:
            return hit, +1
        hit = self._directed.get((b, a))
        if hit is not None:
            return hit, -1
        raise DomainError(f"({a}, {b}) is not a lattice link")

    def loop_link_ids(self, loop: LoopPath) -> list:
        """Signed canonical link ids traversed by a loop; validates the loop."""
        return [self.directed_link(a, b) for a, b in loop.steps()]

    def link_midpoint(self, link_id: int) -> np.ndarray:
        """Chart coordinates of a link midpoint (unwrapped from the tail)."""
        return self.link_midpoints(link_id)

    def link_midpoints(self, links=slice(None)) -> np.ndarray:
        """Chart coordinates of link midpoints, (n_links, dim) by default."""
        a = self.sites[self.link_tail[links]]
        b = self.sites[self.link_head[links]]
        d = b - a
        d = (d + np.pi) % (2.0 * np.pi) - np.pi  # unwrap across the seam
        return a + 0.5 * d

    # -- involution bookkeeping ----------------------------------------

    def _build_plaquette_table(self):
        width = max((len(v) for v in self.plaquette_vertices), default=0)
        rows = [
            [self.directed_link(v[a], v[(a + 1) % len(v)]) for a in range(len(v))]
            + [(0, 0)] * (width - len(v))
            for v in self.plaquette_vertices
        ]
        table = np.array(rows, dtype=int).reshape(self.n_plaquettes, width, 2)
        self.plaquette_links = table[:, :, 0].copy()
        self.plaquette_signs = table[:, :, 1].astype(np.int8)

    def _build_link_image(self):
        tau = self.involution
        img = np.empty(self.n_links, dtype=int)
        sgn = np.empty(self.n_links, dtype=int)
        for i in range(self.n_links):
            a, b = int(tau[self.link_tail[i]]), int(tau[self.link_head[i]])
            try:
                img[i], sgn[i] = self.directed_link(a, b)
            except DomainError:
                raise InvalidDiscretizationError(
                    f"involution does not map link {i} to a link"
                ) from None
        self.link_image = img
        self.link_image_sign = sgn

    def _build_plaquette_image(self):
        tau = self.involution
        by_vertexset = {
            frozenset(v): p for p, v in enumerate(self.plaquette_vertices)
        }
        img = np.empty(self.n_plaquettes, dtype=int)
        sgn = np.empty(self.n_plaquettes, dtype=int)
        for p, verts in enumerate(self.plaquette_vertices):
            mapped = tuple(int(tau[v]) for v in verts)
            q = by_vertexset.get(frozenset(mapped))
            if q is None:
                raise InvalidDiscretizationError(
                    f"involution does not map plaquette {p} to a plaquette"
                )
            target = self.plaquette_vertices[q]
            k = len(target)
            shift = target.index(mapped[0])
            fwd = tuple(target[(shift + j) % k] for j in range(k))
            rev = tuple(target[(shift - j) % k] for j in range(k))
            if mapped == fwd:
                sgn[p] = +1
            elif mapped == rev:
                sgn[p] = -1
            else:
                raise InvalidDiscretizationError(f"involution scrambles plaquette {p}")
            img[p] = q
        self.plaquette_image = img
        self.plaquette_image_sign = sgn

    def _check_tiling(self):
        if self.n_plaquettes == 0:
            return
        used = self.plaquette_signs != 0
        links = self.plaquette_links[used]
        net = np.bincount(links, self.plaquette_signs[used], minlength=self.n_links)
        count = np.bincount(links, minlength=self.n_links)
        if np.any(net != 0) or np.any(count != 2):
            raise InvalidDiscretizationError("plaquettes do not tile a closed surface")

    def with_reversed_orientation(self) -> "InvolutiveLattice":
        """Copy of the lattice with every plaquette boundary reversed."""
        verts = [tuple(reversed(v)) for v in self.plaquette_vertices]
        return InvolutiveLattice(
            topology_tag=self.topology_tag,
            involution_kind=self.involution_kind,
            sites=self.sites,
            link_tail=self.link_tail,
            link_head=self.link_head,
            link_mu=self.link_mu,
            link_spacing=self.link_spacing,
            plaquette_vertices=verts,
            plaquette_centers=self.plaquette_centers,
            plaquette_areas=self.plaquette_areas,
            involution=self.involution,
            orientation_flip=self.orientation_flip,
        )


# -- constructors -------------------------------------------------------


def build_circle(n_sites: int, kind: str) -> InvolutiveLattice:
    """Circle lattice with trivial, reflection, or antipodal involution."""
    if kind not in ("trivial", "reflection", "antipodal"):
        raise InvalidDiscretizationError(f"unknown circle involution {kind!r}")
    if n_sites < 4:
        raise InvalidDiscretizationError("circle needs at least 4 sites")
    if kind != "trivial" and n_sites % 2:
        raise InvalidDiscretizationError(
            f"{kind} involution needs an even site count, got {n_sites}"
        )
    idx = np.arange(n_sites)
    sites = (2.0 * np.pi * idx / n_sites)[:, None]
    if kind == "trivial":
        tau = idx.copy()
    elif kind == "reflection":
        tau = (-idx) % n_sites
    else:
        tau = (idx + n_sites // 2) % n_sites
    return InvolutiveLattice(
        topology_tag="circle",
        involution_kind=kind,
        sites=sites,
        link_tail=idx,
        link_head=(idx + 1) % n_sites,
        link_mu=np.zeros(n_sites, dtype=int),
        link_spacing=np.full(n_sites, 2.0 * np.pi / n_sites),
        plaquette_vertices=[],
        plaquette_centers=np.zeros((0, 1)),
        plaquette_areas=np.zeros(0),
        involution=tau,
        orientation_flip=(kind == "reflection"),
    )


def build_torus2(n1: int, n2: int, kind: str) -> InvolutiveLattice:
    """2-torus lattice.

    Involution kinds: ``trivial``; ``eta`` conjugates theta2 (fixed loops at
    theta2 = 0 and pi); ``eta1`` conjugates theta1 (fixed loops at theta1 = 0
    and pi); ``xi`` sends theta2 to theta1 - theta2.  The xi torus is
    triangulated with diagonal links so the involution maps links to links
    exactly; it requires n1 == n2.
    """
    if kind not in ("trivial", "eta", "eta1", "xi"):
        raise InvalidDiscretizationError(f"unknown torus involution {kind!r}")
    if n1 < 4 or n2 < 4 or n1 % 2 or n2 % 2:
        raise InvalidDiscretizationError("torus needs even n1, n2 >= 4")
    if kind == "xi" and n1 != n2:
        raise InvalidDiscretizationError("xi involution needs n1 == n2")

    def sid(i, j):
        return (i % n1) * n2 + (j % n2)

    n_sites = n1 * n2
    ii, jj = np.divmod(np.arange(n_sites), n2)
    h1, h2 = 2.0 * np.pi / n1, 2.0 * np.pi / n2
    sites = np.column_stack([h1 * ii, h2 * jj])

    tail, head, mu, spacing = [], [], [], []
    for i in range(n1):
        for j in range(n2):
            tail += [sid(i, j), sid(i, j)]
            head += [sid(i + 1, j), sid(i, j + 1)]
            mu += [0, 1]
            spacing += [h1, h2]
            if kind == "xi":
                tail.append(sid(i, j))
                head.append(sid(i + 1, j + 1))
                mu.append(2)
                spacing.append(float(np.hypot(h1, h2)))

    verts, centers, areas = [], [], []
    for i in range(n1):
        for j in range(n2):
            if kind == "xi":
                # two triangles per cell, split along the diagonal
                verts.append((sid(i, j), sid(i + 1, j), sid(i + 1, j + 1)))
                centers.append([h1 * (i + 2 / 3), h2 * (j + 1 / 3)])
                areas.append(0.5 * h1 * h2)
                verts.append((sid(i, j), sid(i + 1, j + 1), sid(i, j + 1)))
                centers.append([h1 * (i + 1 / 3), h2 * (j + 2 / 3)])
                areas.append(0.5 * h1 * h2)
            else:
                verts.append(
                    (sid(i, j), sid(i + 1, j), sid(i + 1, j + 1), sid(i, j + 1))
                )
                centers.append([h1 * (i + 0.5), h2 * (j + 0.5)])
                areas.append(h1 * h2)

    if kind == "trivial":
        tau = np.arange(n_sites)
    elif kind == "eta":
        tau = np.array([sid(i, -j) for i, j in zip(ii, jj)])
    elif kind == "eta1":
        tau = np.array([sid(-i, j) for i, j in zip(ii, jj)])
    else:
        tau = np.array([sid(i, i - j) for i, j in zip(ii, jj)])

    return InvolutiveLattice(
        topology_tag="torus2",
        involution_kind=kind,
        sites=sites,
        link_tail=np.array(tail),
        link_head=np.array(head),
        link_mu=np.array(mu),
        link_spacing=np.array(spacing),
        plaquette_vertices=verts,
        plaquette_centers=np.array(centers),
        plaquette_areas=np.array(areas),
        involution=tau,
        orientation_flip=(kind != "trivial"),
    )


def build_sphere2(n_theta: int, n_phi: int) -> InvolutiveLattice:
    """2-sphere lattice with the azimuthal reflection phi -> -phi.

    Sites sit on rings of constant polar angle t_i = pi*i/n_theta
    (i = 1..n_theta-1) plus single north/south pole sites; pole caps are
    triangular plaquettes so the tiling of the closed surface is exact.
    The fixed set is the great circle through both poles at phi in {0, pi}.
    """
    if n_theta < 3:
        raise InvalidDiscretizationError("sphere needs n_theta >= 3")
    if n_phi < 4 or n_phi % 2:
        raise InvalidDiscretizationError("sphere needs even n_phi >= 4")
    n_rings = n_theta - 1
    ht, hp = np.pi / n_theta, 2.0 * np.pi / n_phi
    north, south = 0, 1

    def rid(i, j):  # ring index 1..n_rings, azimuth index mod n_phi
        return 2 + (i - 1) * n_phi + (j % n_phi)

    coords = [(0.0, 0.0), (np.pi, 0.0)]
    for i in range(1, n_rings + 1):
        for j in range(n_phi):
            coords.append((ht * i, hp * j))
    sites = np.array(coords)

    tail, head, mu, spacing = [], [], [], []
    for j in range(n_phi):
        tail.append(north)
        head.append(rid(1, j))
        mu.append(0)
        spacing.append(ht)
    for i in range(1, n_rings):
        for j in range(n_phi):
            tail.append(rid(i, j))
            head.append(rid(i + 1, j))
            mu.append(0)
            spacing.append(ht)
    for j in range(n_phi):
        tail.append(rid(n_rings, j))
        head.append(south)
        mu.append(0)
        spacing.append(ht)
    for i in range(1, n_rings + 1):
        for j in range(n_phi):
            tail.append(rid(i, j))
            head.append(rid(i, j + 1))
            mu.append(1)
            spacing.append(hp)

    verts, centers, areas = [], [], []
    for j in range(n_phi):  # north caps
        verts.append((north, rid(1, j), rid(1, j + 1)))
        centers.append([ht / 2, hp * (j + 0.5)])
        areas.append(0.5 * ht * hp)
    for i in range(1, n_rings):  # rectangular rows
        for j in range(n_phi):
            verts.append((rid(i, j), rid(i + 1, j), rid(i + 1, j + 1), rid(i, j + 1)))
            centers.append([ht * (i + 0.5), hp * (j + 0.5)])
            areas.append(ht * hp)
    for j in range(n_phi):  # south caps
        verts.append((rid(n_rings, j), south, rid(n_rings, j + 1)))
        centers.append([np.pi - ht / 2, hp * (j + 0.5)])
        areas.append(0.5 * ht * hp)

    tau = np.arange(sites.shape[0])
    for i in range(1, n_rings + 1):
        for j in range(n_phi):
            tau[rid(i, j)] = rid(i, -j)

    return InvolutiveLattice(
        topology_tag="sphere2",
        involution_kind="reflect",
        sites=sites,
        link_tail=np.array(tail),
        link_head=np.array(head),
        link_mu=np.array(mu),
        link_spacing=np.array(spacing),
        plaquette_vertices=verts,
        plaquette_centers=np.array(centers),
        plaquette_areas=np.array(areas),
        involution=tau,
        orientation_flip=True,
    )


def sphere_embedding(coords: np.ndarray) -> np.ndarray:
    """Chart (t, phi) -> (x0, x1, x2) with the reflection acting as x2 -> -x2."""
    coords = np.asarray(coords)
    t, phi = coords[..., 0], coords[..., 1]
    return np.stack(
        [np.cos(t), np.sin(t) * np.cos(phi), np.sin(t) * np.sin(phi)], axis=-1
    )


# -- loops ---------------------------------------------------------------


def map_loop(lat: InvolutiveLattice, loop: LoopPath) -> LoopPath:
    """Image of a loop under the involution, link by link."""
    lat.loop_link_ids(loop)  # validates the input loop lies on the lattice
    tau = lat.involution
    return LoopPath(tuple(int(tau[s]) for s in loop.sites))


def fixed_loops(lat: InvolutiveLattice) -> list:
    """Maximal link cycles inside the fixed-point set.

    Returns an empty list when the fixed set is empty or zero-dimensional
    (isolated fixed sites carry no link cycles).  When the involution is
    trivial on a 2d lattice the fixed set is the whole surface and the two
    coordinate generator cycles through site 0 are returned instead.
    """
    fixed = set(int(s) for s in lat.fixed_sites)
    if not fixed:
        return []
    if lat.n_sites == len(fixed) and lat.dim == 2:
        return _generator_loops(lat)

    neighbors: dict[int, list[int]] = {s: [] for s in fixed}
    for a, b in zip(lat.link_tail, lat.link_head):
        a, b = int(a), int(b)
        if a in fixed and b in fixed:
            neighbors[a].append(b)
            neighbors[b].append(a)

    loops = []
    seen: set[int] = set()
    for start in sorted(fixed):
        if start in seen or len(neighbors[start]) != 2:
            continue
        cycle = [start]
        prev, cur = None, start
        while True:
            nxt = [n for n in neighbors[cur] if n != prev]
            if not nxt:
                cycle = None
                break
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            if len(neighbors[cur]) != 2 or cur in seen:
                cycle = None
                break
            cycle.append(cur)
        if cycle and len(cycle) >= 3:
            seen.update(cycle)
            loops.append(LoopPath(tuple(cycle)))
    loops.sort(key=lambda lp: tuple(lat.sites[lp.base]))
    return loops


def _generator_loops(lat: InvolutiveLattice) -> list:
    """Two coordinate cycles through site 0 of a fully fixed 2d lattice."""
    loops = []
    for mu in (0, 1):
        cycle = [0]
        cur = 0
        while True:
            step = None
            for lk in np.flatnonzero(lat.link_tail == cur):
                if lat.link_mu[lk] == mu:
                    step = int(lat.link_head[lk])
                    break
            if step is None or step == 0:
                break
            cycle.append(step)
            cur = step
        loops.append(LoopPath(tuple(cycle)))
    return loops


def circle_loop(lat: InvolutiveLattice) -> LoopPath:
    """The full circle as a loop (circle lattices only)."""
    if lat.topology_tag != "circle":
        raise DomainError("circle_loop only applies to circle lattices")
    return LoopPath(tuple(range(lat.n_sites)))


def latitude_loop(lat: InvolutiveLattice, ring: int) -> LoopPath:
    """Azimuthal ring loop of a sphere lattice."""
    if lat.topology_tag != "sphere2":
        raise DomainError("latitude_loop only applies to sphere lattices")
    n_phi = int(np.sum(lat.sites[:, 0] == lat.sites[2, 0]))
    first = 2 + (ring - 1) * n_phi
    return LoopPath(tuple(range(first, first + n_phi)))


def torus_row_loop(lat: InvolutiveLattice, mu: int, offset: int = 0) -> LoopPath:
    """Coordinate cycle of a torus lattice along direction mu."""
    if lat.topology_tag != "torus2":
        raise DomainError("torus_row_loop only applies to torus lattices")
    n2 = int(np.round(2.0 * np.pi / (lat.sites[1, 1] - lat.sites[0, 1])))
    n1 = lat.n_sites // n2
    if mu == 0:
        return LoopPath(tuple(i * n2 + (offset % n2) for i in range(n1)))
    return LoopPath(tuple((offset % n1) * n2 + j for j in range(n2)))
