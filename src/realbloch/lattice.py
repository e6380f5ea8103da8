"""Discretized involutive base manifolds.

A lattice carries sites with angular coordinates on a grid of ``shape``
(n,), (n1, n2) or (n_theta, n_phi); directed links grouped by direction;
oriented plaquettes that tile the closed surface, as rows of corner sites;
an involution stored as an exact site permutation; and a spanning tree,
the link from each site to its parent.  Builders lay them out by index
arithmetic on the grid, boundary links, link images and the tree included;
the lattice checks those by gathers and finds plaquette images by link
incidence, so all involution bookkeeping is integer-exact and no point maps
are ever compared.

Supported bases: the circle with trivial / reflection / antipodal
involutions, the 2-torus with trivial / theta2-conjugation ("eta") /
theta1-conjugation ("eta1") / shear ("xi") involutions, and the 2-sphere
with the azimuthal reflection.
"""

import itertools
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidDiscretizationError

__all__ = [
    "InvolutiveLattice",
    "LoopPath",
    "build_circle",
    "build_torus2",
    "build_sphere2",
    "fixed_loops",
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


@dataclass(eq=False)
class InvolutiveLattice:
    """Immutable discretized involutive manifold; lattices compare by identity.

    ``shape`` is the site grid (see the module docstring).  Row ``p`` of
    ``plaquette_corners`` (n_plaquettes, width) is the corner cycle of
    plaquette ``p``, padded with -1 at its end (width 4 on the shipped
    lattices).  Entry ``k`` of row ``p`` of the plaquette table
    ``plaquette_links`` / ``plaquette_signs`` is the link from corner k to
    corner k + 1 (wrapping) and its traversal sign; sign 0 pads with the
    identity.  Builders state the links as ``boundary_links`` and the link
    images as ``image_links``; a stated link that does not join its two
    sites, or any if none is stated, is looked up.  ``link_image`` /
    ``plaquette_image`` record the exact action of the involution on links
    and plaquettes with direction / orientation signs.  ``tree_links`` holds
    per site the link to its parent in a spanning tree (-1 at the root), and
    ``tree_parent`` the parent site (the root its own).
    """

    topology_tag: str
    involution_kind: str
    shape: tuple
    sites: np.ndarray
    link_tail: np.ndarray
    link_head: np.ndarray
    link_mu: np.ndarray
    link_spacing: np.ndarray
    plaquette_corners: np.ndarray
    plaquette_centers: np.ndarray
    plaquette_areas: np.ndarray
    involution: np.ndarray
    orientation_flip: bool
    tree_links: np.ndarray
    boundary_links: InitVar[np.ndarray] = None
    image_links: InitVar[np.ndarray] = None
    plaquette_links: np.ndarray = field(init=False, repr=False)
    plaquette_signs: np.ndarray = field(init=False, repr=False)
    fixed_sites: np.ndarray = field(init=False)
    link_image: np.ndarray = field(init=False)
    link_image_sign: np.ndarray = field(init=False)
    plaquette_image: np.ndarray = field(init=False)
    plaquette_image_sign: np.ndarray = field(init=False)
    tree_parent: np.ndarray = field(init=False)
    _link_keys: np.ndarray = field(init=False, repr=False)
    _link_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, boundary_links, image_links):
        tau = self.involution
        if not np.array_equal(tau[tau], np.arange(self.n_sites)):
            raise InvalidDiscretizationError("involution is not an exact involution")
        self.fixed_sites = np.flatnonzero(tau == np.arange(self.n_sites))
        # link keys in ascending order behind a -1 sentinel, with their ids
        keys = self.link_tail * self.n_sites + self.link_head
        order = np.argsort(keys, kind="stable")
        self._link_keys = np.concatenate([[-1], keys[order]])
        self._link_ids = np.concatenate([[-1], order])
        used, size = self._corner_rows()
        self.plaquette_links, self.plaquette_signs = self._link_table(
            self.plaquette_corners, used, size, boundary_links
        )
        img, sgn = self._step_links(
            tau[self.link_tail], tau[self.link_head], image_links, True
        )
        if not sgn.all():
            raise InvalidDiscretizationError(
                f"involution does not map link {np.argmin(sgn != 0)} to a link"
            )
        self.link_image, self.link_image_sign = img, sgn.astype(int)
        self._build_plaquette_image(used, size)
        self._check_tree()

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
        return self.plaquette_corners.shape[0]

    @property
    def grid_spacing(self) -> tuple:
        """Coordinate step along each grid direction (sphere: pi / n_theta)."""
        spans = (np.pi if self.topology_tag == "sphere2" else 2.0 * np.pi, 2.0 * np.pi)
        return tuple(span / n for span, n in zip(spans, self.shape))

    @property
    def base_tag(self) -> str:
        return f"{self.topology_tag}-{self.involution_kind}"

    def loop_link_ids(self, loop: LoopPath) -> list:
        """Signed canonical link ids traversed by a loop; validates the loop."""
        links, signs = self.cycle_table([loop.sites])
        return list(zip(links[0].tolist(), signs[0].tolist()))

    def cycle_table(self, cycles) -> tuple:
        """Signed link table of vertex cycles, padded like the plaquette
        table: row r steps from each vertex of cycle r to the next, wrapping
        at the end.  DomainError names the first step that is not a link."""
        size = np.fromiter(map(len, cycles), dtype=int, count=len(cycles))
        corners = np.full((size.size, size.max(initial=0)), -1)
        used = np.arange(corners.shape[1]) < size[:, None]
        corners[used] = np.fromiter(
            itertools.chain.from_iterable(cycles), dtype=int, count=size.sum()
        )
        return self._link_table(corners, used, size)

    def link_midpoints(self) -> np.ndarray:
        """Chart coordinates of all link midpoints, (n_links, dim)."""
        return self._midpoints

    @cached_property
    def _midpoints(self) -> np.ndarray:  # once per lattice, read-only
        a, b = self.sites[self.link_tail], self.sites[self.link_head]
        if self.topology_tag == "sphere2":  # a pole's phi is arbitrary:
            for end, other in ((a, b), (b, a)):  # a pole link keeps its meridian
                pole = np.isin(end[:, 0], (0.0, np.pi))
                end[pole, 1] = other[pole, 1]
        d = b - a
        d = (d + np.pi) % (2.0 * np.pi) - np.pi  # unwrap across the seam
        mids = a + 0.5 * d
        mids.flags.writeable = False
        return mids

    # -- plaquette and link tables -------------------------------------

    def _corner_rows(self) -> tuple:
        """The used entries of the corner rows and their count per row.
        InvalidDiscretizationError names the first row with an id off the
        grid, a -1 hole before a corner, or fewer than 3 corners."""
        c = self.plaquette_corners
        used = c >= 0
        size = used @ np.ones(c.shape[1], dtype=int)
        hole = ~used & (np.arange(c.shape[1]) < size[:, None])
        for bad, what in (
            ((c < -1) | (c >= self.n_sites), "a corner id off the grid"),
            (hole, "a -1 hole before a corner"),
            ((size < 3)[:, None], "fewer than 3 corners"),
        ):
            if bad.any():
                p = bad.any(axis=1).argmax()
                raise InvalidDiscretizationError(f"plaquette {p} has {what}")
        return used, size

    def _signed_links(self, a: np.ndarray, b: np.ndarray) -> tuple:
        """Link id and sign of every step a -> b: +1 where a -> b is a link,
        else -1 where b -> a is, else 0 (id 0).  Duplicates: the last copy."""
        n = self.n_sites
        ids = np.zeros(a.shape, dtype=int)
        signs = np.zeros(a.shape, dtype=int)
        todo = np.flatnonzero((a >= 0) & (a < n) & (b >= 0) & (b < n))
        for sign, x, y in ((+1, a, b), (-1, b, a)):  # b -> a only where a -> b is not
            key = x[todo] * n + y[todo]
            pos = np.searchsorted(self._link_keys, key, side="right") - 1
            hit = self._link_keys[pos] == key
            ids[todo[hit]], signs[todo[hit]] = self._link_ids[pos[hit]], sign
            todo = todo[~hit]
        return ids, signs

    def _step_links(self, a, b, stated, todo) -> tuple:
        """Link id and sign of every step a -> b where `todo` (a mask or True):
        the `stated` link where it runs a -> b (sign +1) or b -> a (-1), else
        looked up; sign 0 where neither is a link."""
        links, signs = np.zeros(a.shape, dtype=int), np.zeros(a.shape, dtype=np.int8)
        if stated is not None and self.n_links:
            # no link runs to a padding's -1
            ids = np.clip(stated, 0, self.n_links - 1)
            tail, head = self.link_tail[ids], self.link_head[ids]
            fwd, bwd = (tail == a) & (head == b), (tail == b) & (head == a)
            signs = fwd.view(np.int8) - bwd.view(np.int8)
            links = np.where(signs != 0, ids, 0)
        todo = todo & (signs == 0)
        if todo.any():
            links[todo], signs[todo] = self._signed_links(a[todo], b[todo])
        return links, signs

    def _link_table(self, corners, used, size, stated=None) -> tuple:
        # each step runs from corner a to the next corner b, the last wrapping
        a, b = corners, np.roll(corners, -1, axis=1)
        if a.size:
            b[np.arange(len(a)), size - 1] = a[:, 0]
        links, signs = self._step_links(a, b, stated, used)
        missing = used & (signs == 0)
        if missing.any():
            bad = np.argmax(missing)
            raise DomainError(f"({a.flat[bad]}, {b.flat[bad]}) is not a lattice link")
        return links, signs

    def _check_tree(self):
        """InvalidDiscretizationError names the lowest site whose stated tree
        link does not end at it, else the lowest that pointer jumping does
        not bring to the root (a second root, or a site on or below a
        cycle)."""
        site, link = np.arange(self.n_sites), self.tree_links
        root = link == -1
        ids = np.clip(link, 0, self.n_links - 1)
        tail, head = self.link_tail[ids], self.link_head[ids]
        off = ~root & ((ids != link) | ((tail != site) & (head != site)))
        if off.any():
            raise InvalidDiscretizationError(
                f"tree link of site {off.argmax()} does not end at it"
            )
        up = self.tree_parent = np.where(root, site, tail + head - site)
        for _ in range(site.size.bit_length()):  # 2**steps > any depth
            if root[up].all():
                break
            up = up[up]
        lost = ~root[up] | (up != root.argmax())
        if lost.any():
            raise InvalidDiscretizationError(
                f"tree does not bring site {lost.argmax()} to the root"
            )

    # -- involution bookkeeping ----------------------------------------

    def _build_plaquette_image(self, used: np.ndarray, size: np.ndarray):
        """Image plaquette by link incidence, then the tiling check.  The
        image of plaquette p borders the image l of p's first link.  If the
        mapped corner cycle reads it forwards from the image of p's first
        corner (sign +1), it is the plaquette that runs l the way the mapped
        first step does; if backwards (sign -1), the other plaquette on l."""
        corners = self.plaquette_corners
        links, signs = self.plaquette_links, self.plaquette_signs
        n, width = corners.shape
        if not n:  # a circle
            self.plaquette_image = self.plaquette_image_sign = np.zeros(0, dtype=int)
            return
        mapped = np.where(used, self.involution[corners], -1)
        # slot l of `sides` holds a plaquette that runs link l forwards, slot
        # half + l one that runs it backwards (-1: none), `step` the position
        # of the link in the plaquette's row; padding fills slot n_links
        half = self.n_links + 1
        slot = np.where(used, links, self.n_links) + (signs < 0) * half
        sides, step = np.full(2 * half, -1), np.zeros(2 * half, dtype=int)
        sides[slot], step[slot] = np.arange(n)[:, None], np.arange(width)
        # the candidates that would read the mapped cycle forwards from the
        # tail of their step on l, backwards from its head (a missing one, -1,
        # gathers the last row)
        first = links[:, 0]
        back = signs[:, 0] * self.link_image_sign[first] < 0
        at = self.link_image[first] + np.stack([back, ~back]) * half
        cand, period = sides[at], size[sides[at]][..., None]
        col = np.arange(width)
        offsets = step[at][..., None] + np.stack([col, 1 - col])[:, None]
        cycle = corners[cand[..., None], offsets % period]
        reads = (cand >= 0) & (period[..., 0] == size)
        for k in range(width):
            reads &= (cycle[..., k] == mapped[:, k]) | ~used[:, k]
        # a closed surface: each link runs forwards in one plaquette and
        # backwards in one
        runs = np.bincount(slot.ravel(), minlength=sides.size).reshape(2, half)
        closed = np.all(runs[:, :-1] == 1)
        bad = np.flatnonzero(~(reads[0] | reads[1]))
        if bad.size:
            # no plaquette holds the mapped corners, or one holds them out of
            # order, unless a broken tiling kept it off the incidence table
            p = bad[0]
            held = np.all(np.sort(corners, axis=1) == np.sort(mapped[p]), axis=1)
            if not held.any():
                raise InvalidDiscretizationError(
                    f"involution does not map plaquette {p} to a plaquette"
                )
            q = cand[:, p]
            if closed or held[q[q >= 0]].any():
                raise InvalidDiscretizationError(f"involution scrambles plaquette {p}")
        if not closed:
            raise InvalidDiscretizationError("plaquettes do not tile a closed surface")
        self.plaquette_image = np.where(reads[0], cand[0], cand[1])
        self.plaquette_image_sign = np.where(reads[0], 1, -1)

    def with_reversed_orientation(self) -> "InvolutiveLattice":
        """Copy of the lattice with every plaquette boundary reversed (the
        used part of each corner row; the padding stays at its end), whose
        step k of s states the original step (s - 2 - k) mod s as its link."""
        c = self.plaquette_corners
        size = np.count_nonzero(c >= 0, axis=1)[:, None]
        back = size - 1 - np.arange(c.shape[1])
        rows = np.where(back >= 0, np.take_along_axis(c, np.maximum(back, 0), 1), -1)
        links = np.take_along_axis(self.plaquette_links, (back - 1) % size, 1)
        return replace(self, plaquette_corners=rows, boundary_links=links,
                       image_links=self.link_image)


# -- constructors -------------------------------------------------------


def build_circle(n_sites: int, kind: str) -> InvolutiveLattice:
    """Circle lattice with trivial, reflection, or antipodal involution
    (another kind raises DomainError).  Link i runs from site i to i + 1; the
    tree runs both ways from site 0 and meets past site n_sites / 2."""
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
        tau, image = idx.copy(), idx
    elif kind == "reflection":  # link i runs back along link -i - 1
        tau, image = (-idx) % n_sites, (-idx - 1) % n_sites
    else:
        tau = image = (idx + n_sites // 2) % n_sites
    return InvolutiveLattice(
        topology_tag="circle",
        involution_kind=kind,
        shape=(n_sites,),
        sites=sites,
        link_tail=idx,
        link_head=(idx + 1) % n_sites,
        link_mu=np.zeros(n_sites, dtype=int),
        link_spacing=np.full(n_sites, 2.0 * np.pi / n_sites),
        plaquette_corners=np.zeros((0, 0), dtype=int),
        plaquette_centers=np.zeros((0, 1)),
        plaquette_areas=np.zeros(0),
        involution=tau,
        orientation_flip=(kind == "reflection"),
        tree_links=np.where(idx <= n_sites // 2, idx - 1, idx),
        image_links=image,
    )


def build_torus2(n1: int, n2: int, kind: str) -> InvolutiveLattice:
    """2-torus lattice.

    Involution kinds: ``trivial``; ``eta`` conjugates theta2 (fixed loops at
    theta2 = 0 and pi); ``eta1`` conjugates theta1 (fixed loops at theta1 = 0
    and pi); ``xi`` sends theta2 to theta1 - theta2; another kind raises
    DomainError.  The xi torus is triangulated with diagonal links so the
    involution maps links to links exactly; it requires n1 == n2.  Site
    (i, j) has id i * n2 + j and owns its theta1, theta2 and (xi) diagonal
    link, in that order.  The tree runs both ways from site 0 along a spine,
    the theta2 = 0 loop (eta1: theta1 = 0), and from there both ways across
    it: tau-symmetric on the eta and eta1 tori but at the other fixed loop,
    whose sites are leaves (no tau-symmetric tree reaches a second fixed
    loop), and on the xi torus just a spanning tree.
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
        grid = np.arange(n_sites).reshape(n1, n2)
        rolled = [np.roll(grid, (-di, -dj), (0, 1)).ravel() for di, dj in offsets]
        return np.column_stack(rolled)

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
    corners = np.stack([at(c) for c in cells], axis=1)  # (site, cell, corner)
    centroids = np.mean(cells, axis=1)
    centers = np.stack(
        [np.column_stack([h1 * (ii + a), h2 * (jj + b)]) for a, b in centroids],
        axis=1,
    )
    # site s owns link s * len(steps) + m: a step of a cell's boundary runs
    # along the link of its tail corner or against that of its head corner
    links = np.empty(corners.shape, dtype=int)
    for c, cell in enumerate(cells):
        for k, (a, b) in enumerate(zip(cell, cell[1:] + cell[:1])):
            d = (b[0] - a[0], b[1] - a[1])
            owner, d = (k, d) if d in steps else ((k + 1) % len(cell), (-d[0], -d[1]))
            links[:, c, k] = corners[:, c, owner] * len(steps) + steps.index(d)

    # tau acts linearly on the grid, so it maps a link's step d to mat @ d,
    # run along the link of tau(tail) or against that of tau(head)
    mat = np.array({"trivial": [[1, 0], [0, 1]], "eta": [[1, 0], [0, -1]],
                    "eta1": [[-1, 0], [0, 1]], "xi": [[1, 0], [1, -1]]}[kind])
    tau = sid(*(mat[:, :1] * ii + mat[:, 1:] * jj))
    head = at(steps)
    image = np.empty(head.shape, dtype=int)
    for m, d in enumerate(steps):
        e = mat @ d
        back = tuple(e) not in steps
        owner = tau[head[:, m]] if back else tau
        image[:, m] = owner * len(steps) + steps.index(tuple(-e if back else e))
    # the tree: a site off the spine steps across it toward it, a spine site
    # along it toward site 0; at coordinate x <= n / 2 by the link of the
    # site below, else by its own link
    branch = int(kind != "eta1")  # the axis across the spine
    x, half, stride = (ii, jj), (n1 // 2, n2 // 2), (n2, 1)
    tree = [(np.arange(n_sites) - stride[a] * (x[a] <= half[a])) * len(steps) + a
            for a in (0, 1)]
    tree = np.where(x[branch] != 0, tree[branch], tree[1 - branch])
    tree[0] = -1

    return InvolutiveLattice(
        topology_tag="torus2",
        involution_kind=kind,
        shape=(n1, n2),
        sites=sites,
        link_tail=np.repeat(np.arange(n_sites), len(steps)),
        link_head=head.ravel(),
        link_mu=np.tile(np.arange(len(steps)), n_sites),
        link_spacing=np.tile([h1, h2, float(np.hypot(h1, h2))][: len(steps)], n_sites),
        plaquette_corners=corners.reshape(-1, corners.shape[-1]),
        plaquette_centers=centers.reshape(-1, 2),
        plaquette_areas=np.full(n_sites * len(cells), h1 * h2 / len(cells)),
        involution=tau,
        orientation_flip=(kind != "trivial"),
        tree_links=tree,
        boundary_links=links.reshape(-1, links.shape[-1]),
        image_links=image.ravel(),
    )


def build_sphere2(n_theta: int, n_phi: int) -> InvolutiveLattice:
    """2-sphere lattice with the azimuthal reflection phi -> -phi.

    Sites sit on rings of constant polar angle t_i = pi*i/n_theta
    (i = 1..n_theta-1) plus single north/south pole sites; pole caps are
    triangular plaquettes so the tiling of the closed surface is exact.
    The fixed set is the great circle through both poles at phi in {0, pi}.
    The grid rows i = 0..n_theta run from pole to pole: each row of cells
    has its theta links and its plaquettes, and each ring its phi links.
    The tree hangs the meridians from the north pole and the south pole from
    the last ring at phi = 0; it is tau-symmetric.
    """
    if n_theta < 3:
        raise InvalidDiscretizationError("sphere needs n_theta >= 3")
    if n_phi < 4 or n_phi % 2:
        raise InvalidDiscretizationError("sphere needs even n_phi >= 4")
    ht, hp = np.pi / n_theta, 2.0 * np.pi / n_phi

    # site ids of the grid points (i, j); rows 0 and n_theta are the poles
    ring = np.arange(2, 2 + (n_theta - 1) * n_phi)
    grid = np.concatenate([[0] * n_phi, ring, [1] * n_phi]).reshape(-1, n_phi)

    def node(i, j):
        return grid[i, j % n_phi]

    ci, cj = np.divmod(np.arange(n_theta * n_phi), n_phi)  # cells
    ri, rj = np.divmod(np.arange(n_phi, n_theta * n_phi), n_phi)  # ring sites
    poles = [(0.0, 0.0), (np.pi, 0.0)]
    sites = np.concatenate([poles, np.column_stack([ht * ri, hp * rj])])
    n_cells = ci.size
    # each cell's corners and boundary links: theta links are numbered like
    # the cells, then phi links like their ring sites (from site 2 on); a pole
    # cell loses the step between its two pole corners and that step's tail,
    # the step 3 of a north cell and the step 1 of a south cell
    corners = np.column_stack(
        [node(ci, cj), node(ci + 1, cj), node(ci + 1, cj + 1), node(ci, cj + 1)]
    )
    phi = corners + n_cells - 2  # the phi link of each corner's ring site
    links = np.column_stack(
        [ci * n_phi + cj, phi[:, 1], ci * n_phi + (cj + 1) % n_phi, phi[:, 0]]
    )
    for table, pad in ((corners, -1), (links, 0)):
        table[-n_phi:, 1:3] = table[-n_phi:, 2:]
        table[:n_phi, 3] = table[-n_phi:, 3] = pad
    # tau maps a theta link to that of cell (i, -j) and runs a phi link back
    # along that of ring site (i, -j - 1)
    image = np.concatenate([ci * n_phi + -cj % n_phi, node(ri, -rj - 1) + n_cells - 2])
    theta = ht * (ci + 0.5)
    theta[-n_phi:] = np.pi - ht / 2  # measured from the south pole, like the north caps
    areas = np.full(n_cells, ht * hp)
    areas[:n_phi] = areas[-n_phi:] = 0.5 * ht * hp

    return InvolutiveLattice(
        topology_tag="sphere2",
        involution_kind="reflect",
        shape=(n_theta, n_phi),
        sites=sites,
        link_tail=np.concatenate([node(ci, cj), node(ri, rj)]),
        link_head=np.concatenate([node(ci + 1, cj), node(ri, rj + 1)]),
        link_mu=np.repeat([0, 1], [n_cells, ri.size]),
        link_spacing=np.repeat([ht, hp], [n_cells, ri.size]),
        plaquette_corners=corners,
        plaquette_centers=np.column_stack([theta, hp * (cj + 0.5)]),
        plaquette_areas=areas,
        involution=np.concatenate([[0, 1], node(ri, -rj)]),
        orientation_flip=True,
        # a ring site hangs from the theta link above it, numbered like its cell
        tree_links=np.concatenate([[-1, n_cells - n_phi], ring - 2]),
        boundary_links=links,
        image_links=image,
    )


def sphere_embedding(coords: np.ndarray) -> np.ndarray:
    """Chart (t, phi) -> (x0, x1, x2) with the reflection acting as x2 -> -x2."""
    coords = np.asarray(coords)
    t, phi = coords[..., 0], coords[..., 1]
    return np.stack(
        [np.cos(t), np.sin(t) * np.cos(phi), np.sin(t) * np.sin(phi)], axis=-1
    )


# -- tau-orbits of Real values --------------------------------------------


def orbit_split(image: np.ndarray, mirrored=None, ends=None) -> tuple:
    """``(rows, copies)``: the ids of sites, links or plaquettes whose value is
    computed (``slice(None)`` when that is all of them), and those written
    from their tau-image's: the higher id of each orbit whose `ends` (site id
    arrays, -1 for none; a site is its own end when `ends` is None) are all
    `mirrored`."""
    copy = image < np.arange(image.size)
    if mirrored is None:
        copy[:] = False
    elif ends is None:
        copy &= mirrored
    else:
        for e in ends:  # one array at a time: .all(axis=1) is slow on short rows
            copy &= mirrored[e] | (e < 0)
    copies = np.flatnonzero(copy)
    return (np.flatnonzero(~copy) if copies.size else slice(None)), copies


def mirror_rows(values: np.ndarray, rows, copies, image, sign) -> np.ndarray:
    """The stack with `values` at `rows` and at `copies` their images' values,
    conjugated where `sign` is +1 and transposed where -1."""
    if not copies.size:
        return values
    out = np.empty((len(values) + copies.size,) + values.shape[1:], values.dtype)
    out[rows] = values
    src, plus = out[image[copies]], (sign[copies] > 0)[:, None, None]
    out[copies] = np.where(plus, src.conj(), src.swapaxes(1, 2))
    return out


# -- loops ---------------------------------------------------------------


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
