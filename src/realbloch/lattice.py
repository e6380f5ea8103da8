"""Discretized involutive base manifolds.

A lattice carries sites with angular coordinates on a grid of ``shape``
(n,), (n1, n2) or (n_theta, n_phi); directed links grouped by direction;
oriented plaquettes that tile the closed surface; and an involution stored
as an exact site permutation.  Builders lay them out by index arithmetic on
the grid, and the tables below come from one sorted lookup of link keys, so
all involution bookkeeping is integer-exact; no floating-point point maps
are ever compared.

Supported bases: the circle with trivial / reflection / antipodal
involutions, the 2-torus with trivial / theta2-conjugation ("eta") /
theta1-conjugation ("eta1") / shear ("xi") involutions, and the 2-sphere
with the azimuthal reflection.
"""

import itertools
from dataclasses import dataclass, field, replace

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

    def reversed(self) -> "LoopPath":
        return LoopPath((self.sites[0],) + tuple(reversed(self.sites[1:])))


@dataclass
class InvolutiveLattice:
    """Immutable discretized involutive manifold.

    ``shape`` is the site grid (see the module docstring).  Plaquettes are
    stored as vertex cycles and as ``plaquette_corners``, of shape
    (n_plaquettes, width) padded with -1, width being the longest boundary
    (4 on the shipped lattices).  ``cycle_table`` builds their oriented
    boundaries once as the padded plaquette table ``plaquette_links`` /
    ``plaquette_signs``: entry ``k`` of row ``p`` is the k-th boundary link
    and its traversal sign, and sign 0 pads with the identity.
    ``link_image`` / ``plaquette_image`` record the exact action of the
    involution on links and plaquettes with direction / orientation signs.
    """

    topology_tag: str
    involution_kind: str
    shape: tuple
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
    plaquette_corners: np.ndarray = field(init=False, repr=False)
    plaquette_links: np.ndarray = field(init=False, repr=False)
    plaquette_signs: np.ndarray = field(init=False, repr=False)
    fixed_sites: np.ndarray = field(init=False)
    link_image: np.ndarray = field(init=False)
    link_image_sign: np.ndarray = field(init=False)
    plaquette_image: np.ndarray = field(init=False)
    plaquette_image_sign: np.ndarray = field(init=False)
    _link_keys: np.ndarray = field(init=False, repr=False)
    _link_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tau = self.involution
        if not np.array_equal(tau[tau], np.arange(self.n_sites)):
            raise InvalidDiscretizationError("involution is not an exact involution")
        self.fixed_sites = np.flatnonzero(tau == np.arange(self.n_sites))
        # link keys in ascending order behind a -1 sentinel, with their ids
        keys = self.link_tail * self.n_sites + self.link_head
        order = np.argsort(keys, kind="stable")
        self._link_keys = np.concatenate([[-1], keys[order]])
        self._link_ids = np.concatenate([[-1], order])
        corners, size = _corner_table(self.plaquette_vertices)
        self.plaquette_corners = corners
        self.plaquette_links, self.plaquette_signs = self._link_table(corners, size)
        self._build_link_image()
        self._build_plaquette_image(corners, size)
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
    def grid_spacing(self) -> tuple:
        """Coordinate step along each grid direction (sphere: pi / n_theta)."""
        spans = (np.pi if self.topology_tag == "sphere2" else 2.0 * np.pi, 2.0 * np.pi)
        return tuple(span / n for span, n in zip(spans, self.shape))

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
        return self.loop_link_ids(LoopPath((a, b)))[0]

    def loop_link_ids(self, loop: LoopPath) -> list:
        """Signed canonical link ids traversed by a loop; validates the loop."""
        links, signs = self.cycle_table([loop.sites])
        return list(zip(links[0].tolist(), signs[0].tolist()))

    def cycle_table(self, cycles) -> tuple:
        """Signed link table of vertex cycles, padded like the plaquette
        table: row r steps from each vertex of cycle r to the next, wrapping
        at the end.  DomainError names the first step that is not a link."""
        return self._link_table(*_corner_table(cycles))

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

    # -- signed link lookup ------------------------------------------

    def _signed_links(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """Link id and sign of every step a -> b: +1 where a -> b is a link,
        else -1 where b -> a is, else 0 (id 0).  Duplicates: the last copy."""
        n = self.n_sites
        ids = np.zeros(a.shape, dtype=int)
        signs = np.zeros(a.shape, dtype=int)
        on_grid = (a >= 0) & (a < n) & (b >= 0) & (b < n)
        for sign, key in ((-1, b * n + a), (+1, a * n + b)):  # a -> b wins
            pos = np.searchsorted(self._link_keys, key, side="right") - 1
            hit = on_grid & (self._link_keys[pos] == key)
            ids[hit], signs[hit] = self._link_ids[pos[hit]], sign
        return ids, signs

    def _link_table(self, corners: np.ndarray, size: np.ndarray) -> tuple:
        used = np.arange(corners.shape[1]) < size[:, None]
        after = (np.arange(corners.shape[1]) + 1) % np.maximum(size, 1)[:, None]
        a, b = corners[used], np.take_along_axis(corners, after, axis=1)[used]
        ids, signs = self._signed_links(a, b)
        bad = np.flatnonzero(signs == 0)
        if bad.size:
            raise DomainError(f"({a[bad[0]]}, {b[bad[0]]}) is not a lattice link")
        links = np.zeros(corners.shape, dtype=int)
        links[used] = ids
        link_signs = np.zeros(corners.shape, dtype=np.int8)
        link_signs[used] = signs
        return links, link_signs

    # -- involution bookkeeping ----------------------------------------

    def _build_link_image(self):
        tau = self.involution
        img, sgn = self._signed_links(tau[self.link_tail], tau[self.link_head])
        if not sgn.all():
            raise InvalidDiscretizationError(
                f"involution does not map link {np.argmin(sgn != 0)} to a link"
            )
        self.link_image = img
        self.link_image_sign = sgn

    def _build_plaquette_image(self, corners: np.ndarray, size: np.ndarray):
        """Image plaquette by vertex-set match (the last plaquette with that
        set); sign +1 if the mapped cycle reads the image's cycle forwards
        from the image of the first vertex, -1 if backwards."""
        n, width = corners.shape
        if not n:  # a circle
            self.plaquette_image = np.zeros(0, dtype=int)
            self.plaquette_image_sign = np.zeros(0, dtype=int)
            return
        used = np.arange(width) < size[:, None]
        mapped = np.where(used, self.involution[corners], -1)
        _, group = np.unique(
            _vertex_sets(np.concatenate([corners, mapped])), return_inverse=True
        )
        owner = np.full(2 * n, -1)
        np.maximum.at(owner, group[:n], np.arange(n))
        img = owner[group[n:]]
        # a missing image (-1) gathers the last plaquette, whose vertex set
        # differs, so that neither reading below can match it
        target = corners[img]
        start = np.argmax(target == mapped[:, :1], axis=1)[:, None]
        period = np.maximum(size[img], 1)[:, None]
        same = size[img] == size

        def reads(offsets):
            cycle = np.take_along_axis(target, offsets % period, axis=1)
            return same & np.all((cycle == mapped) | ~used, axis=1)

        fwd, rev = reads(start + np.arange(width)), reads(start - np.arange(width))
        bad = np.flatnonzero(~(fwd | rev))
        if bad.size:
            p = bad[0]
            if img[p] < 0:
                raise InvalidDiscretizationError(
                    f"involution does not map plaquette {p} to a plaquette"
                )
            raise InvalidDiscretizationError(f"involution scrambles plaquette {p}")
        self.plaquette_image = img
        self.plaquette_image_sign = np.where(fwd, 1, -1)

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
        verts = list(map(tuple, map(reversed, self.plaquette_vertices)))
        return replace(self, plaquette_vertices=verts)


def _corner_table(cycles: list) -> tuple:
    """Vertex cycles as an (n, width) array padded with -1, and their lengths."""
    size = np.fromiter(map(len, cycles), dtype=int, count=len(cycles))
    corners = np.full((size.size, size.max(initial=0)), -1)
    corners[np.arange(corners.shape[1]) < size[:, None]] = np.fromiter(
        itertools.chain.from_iterable(cycles), dtype=int, count=size.sum()
    )
    return corners, size


def _vertex_sets(rows: np.ndarray) -> np.ndarray:
    """One key per row, equal for two rows iff they hold the same vertices:
    the row sorted, with repeats turned into padding, read as raw bytes."""
    rows = np.sort(rows, axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
    rows = np.sort(rows, axis=1)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _cycles(rows: np.ndarray) -> list:
    """Rows of a vertex array as tuples of ints."""
    return list(map(tuple, rows.tolist()))


# -- constructors -------------------------------------------------------


def build_circle(n_sites: int, kind: str) -> InvolutiveLattice:
    """Circle lattice with trivial, reflection, or antipodal involution
    (another kind raises DomainError)."""
    if kind not in ("trivial", "reflection", "antipodal"):
        raise DomainError(f"unknown circle involution {kind!r}")
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
        shape=(n_sites,),
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
    and pi); ``xi`` sends theta2 to theta1 - theta2; another kind raises
    DomainError.  The xi torus is triangulated with diagonal links so the
    involution maps links to links exactly; it requires n1 == n2.  Site
    (i, j) has id i * n2 + j and owns its theta1, theta2 and (xi) diagonal
    link, in that order.
    """
    if kind not in ("trivial", "eta", "eta1", "xi"):
        raise DomainError(f"unknown torus involution {kind!r}")
    if n1 < 4 or n2 < 4 or n1 % 2 or n2 % 2:
        raise InvalidDiscretizationError("torus needs even n1, n2 >= 4")
    if kind == "xi" and n1 != n2:
        raise InvalidDiscretizationError("xi involution needs n1 == n2")

    def sid(i, j):
        return (i % n1) * n2 + (j % n2)

    def at(offsets):  # ids of the sites (i + di, j + dj), a column per offset
        return np.column_stack([sid(ii + di, jj + dj) for di, dj in offsets])

    n_sites = n1 * n2
    ii, jj = np.divmod(np.arange(n_sites), n2)
    h1, h2 = 2.0 * np.pi / n1, 2.0 * np.pi / n2
    sites = np.column_stack([h1 * ii, h2 * jj])
    steps = [(1, 0), (0, 1), (1, 1)][: 3 if kind == "xi" else 2]

    # the plaquettes of cell (i, j) as corner offsets: its square, or (xi)
    # two triangles split along the diagonal; centres are corner centroids
    cells = [[(0, 0), (1, 0), (1, 1), (0, 1)]]
    if kind == "xi":
        cells = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
    verts = np.stack([at(c) for c in cells], axis=1)
    centroids = np.mean(cells, axis=1)
    centers = np.stack(
        [np.column_stack([h1 * (ii + a), h2 * (jj + b)]) for a, b in centroids],
        axis=1,
    )

    tau = {
        "trivial": sid(ii, jj),
        "eta": sid(ii, -jj),
        "eta1": sid(-ii, jj),
        "xi": sid(ii, ii - jj),
    }[kind]

    return InvolutiveLattice(
        topology_tag="torus2",
        involution_kind=kind,
        shape=(n1, n2),
        sites=sites,
        link_tail=np.repeat(np.arange(n_sites), len(steps)),
        link_head=at(steps).ravel(),
        link_mu=np.tile(np.arange(len(steps)), n_sites),
        link_spacing=np.tile([h1, h2, float(np.hypot(h1, h2))][: len(steps)], n_sites),
        plaquette_vertices=_cycles(verts.reshape(-1, verts.shape[-1])),
        plaquette_centers=centers.reshape(-1, 2),
        plaquette_areas=np.full(n_sites * len(cells), h1 * h2 / len(cells)),
        involution=tau,
        orientation_flip=(kind != "trivial"),
    )


def build_sphere2(n_theta: int, n_phi: int) -> InvolutiveLattice:
    """2-sphere lattice with the azimuthal reflection phi -> -phi.

    Sites sit on rings of constant polar angle t_i = pi*i/n_theta
    (i = 1..n_theta-1) plus single north/south pole sites; pole caps are
    triangular plaquettes so the tiling of the closed surface is exact.
    The fixed set is the great circle through both poles at phi in {0, pi}.
    The grid rows i = 0..n_theta run from pole to pole: each row of cells
    has its theta links and its plaquettes, and each ring its phi links.
    """
    if n_theta < 3:
        raise InvalidDiscretizationError("sphere needs n_theta >= 3")
    if n_phi < 4 or n_phi % 2:
        raise InvalidDiscretizationError("sphere needs even n_phi >= 4")
    ht, hp = np.pi / n_theta, 2.0 * np.pi / n_phi

    def node(i, j):  # site id of grid point (i, j); rows 0 and n_theta are poles
        ring = 2 + (i - 1) * n_phi + j % n_phi
        return np.select([i == 0, i == n_theta], [0, 1], ring)

    ci, cj = np.divmod(np.arange(n_theta * n_phi), n_phi)  # cells
    ri, rj = np.divmod(np.arange(n_phi, n_theta * n_phi), n_phi)  # ring sites
    poles = [(0.0, 0.0), (np.pi, 0.0)]
    sites = np.concatenate([poles, np.column_stack([ht * ri, hp * rj])])
    counts = [ci.size, ri.size]  # theta links, then phi links

    quads = np.column_stack(
        [node(ci, cj), node(ci + 1, cj), node(ci + 1, cj + 1), node(ci, cj + 1)]
    )
    # the cells at a pole lose their repeated pole corner
    verts = (
        _cycles(quads[:n_phi, :3])
        + _cycles(quads[n_phi:-n_phi])
        + _cycles(quads[-n_phi:][:, [0, 1, 3]])
    )
    theta = ht * (ci + 0.5)
    theta[-n_phi:] = np.pi - ht / 2  # measured from the south pole, like the north caps
    areas = np.full(ci.size, ht * hp)
    areas[:n_phi] = areas[-n_phi:] = 0.5 * ht * hp

    return InvolutiveLattice(
        topology_tag="sphere2",
        involution_kind="reflect",
        shape=(n_theta, n_phi),
        sites=sites,
        link_tail=np.concatenate([node(ci, cj), node(ri, rj)]),
        link_head=np.concatenate([node(ci + 1, cj), node(ri, rj + 1)]),
        link_mu=np.repeat([0, 1], counts),
        link_spacing=np.repeat([ht, hp], counts),
        plaquette_vertices=verts,
        plaquette_centers=np.column_stack([theta, hp * (cj + 0.5)]),
        plaquette_areas=areas,
        involution=np.concatenate([[0, 1], node(ri, -rj)]),
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
    return LoopPath(tuple(lat.involution[list(loop.sites)].tolist()))


def fixed_loops(lat: InvolutiveLattice) -> list:
    """Maximal link cycles inside the fixed-point set.

    Returns an empty list when the fixed set is empty or zero-dimensional
    (isolated fixed sites carry no link cycles).  When the involution is
    trivial on a 2d lattice the fixed set is the whole surface and the two
    coordinate generator cycles through site 0 are returned instead.
    """
    fixed = lat.fixed_sites.tolist()
    if not fixed:
        return []
    if lat.n_sites == len(fixed) and lat.dim == 2:
        return [torus_row_loop(lat, 0), torus_row_loop(lat, 1)]

    is_fixed = lat.involution == np.arange(lat.n_sites)
    inside = is_fixed[lat.link_tail] & is_fixed[lat.link_head]  # in link order
    neighbors: dict[int, list[int]] = {s: [] for s in fixed}
    for a, b in zip(lat.link_tail[inside].tolist(), lat.link_head[inside].tolist()):
        neighbors[a].append(b)
        neighbors[b].append(a)

    loops = []
    seen: set[int] = set()
    for start in fixed:
        if start in seen or len(neighbors[start]) != 2:
            continue
        # walk on through sites with two fixed neighbours; None is a dead end
        cycle, prev, cur = [start], start, neighbors[start][0]
        while cur != start and len(neighbors.get(cur, ())) == 2 and cur not in seen:
            cycle.append(cur)
            prev, cur = cur, next((n for n in neighbors[cur] if n != prev), None)
        if cur == start and len(cycle) >= 3:
            seen.update(cycle)
            loops.append(LoopPath(tuple(cycle)))
    loops.sort(key=lambda lp: tuple(lat.sites[lp.base]))
    return loops


def circle_loop(lat: InvolutiveLattice) -> LoopPath:
    """The full circle as a loop (circle lattices only)."""
    if lat.topology_tag != "circle":
        raise DomainError("circle_loop only applies to circle lattices")
    return LoopPath(tuple(range(lat.n_sites)))


def latitude_loop(lat: InvolutiveLattice, ring: int) -> LoopPath:
    """Azimuthal loop around ring 1..n_theta-1 of a sphere lattice."""
    if lat.topology_tag != "sphere2":
        raise DomainError("latitude_loop only applies to sphere lattices")
    n_theta, n_phi = lat.shape
    if not 1 <= ring < n_theta:
        raise DomainError(f"ring {ring} outside 1..{n_theta - 1}")
    first = 2 + (ring - 1) * n_phi
    return LoopPath(tuple(range(first, first + n_phi)))


def torus_row_loop(lat: InvolutiveLattice, mu: int, offset: int = 0) -> LoopPath:
    """Coordinate cycle of a torus lattice along direction mu (0 or 1)."""
    if lat.topology_tag != "torus2":
        raise DomainError("torus_row_loop only applies to torus lattices")
    if mu not in (0, 1):
        raise DomainError(f"torus direction mu must be 0 or 1, got {mu}")
    n1, n2 = lat.shape
    if mu == 0:
        return LoopPath(tuple(range(offset % n2, n1 * n2, n2)))
    first = (offset % n1) * n2
    return LoopPath(tuple(range(first, first + n2)))
