import dataclasses
import re

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
from realbloch.errors import DomainError, InvalidDiscretizationError


def all_test_lattices():
    return [
        rb.build_circle(8, "trivial"),
        rb.build_circle(8, "reflection"),
        rb.build_circle(8, "antipodal"),
        rb.build_torus2(8, 8, "trivial"),
        rb.build_torus2(8, 6, "eta"),
        rb.build_torus2(6, 8, "eta1"),
        rb.build_torus2(8, 8, "xi"),
        rb.build_sphere2(6, 8),
    ]


def test_circle_fixed_sites():
    assert rb.build_circle(8, "trivial").fixed_sites.size == 8
    refl = rb.build_circle(8, "reflection")
    assert list(refl.fixed_sites) == [0, 4]  # angles 0 and pi
    assert rb.build_circle(8, "antipodal").fixed_sites.size == 0


def test_circle_bad_sizes():
    with pytest.raises(InvalidDiscretizationError):
        rb.build_circle(7, "reflection")
    with pytest.raises(InvalidDiscretizationError):
        rb.build_circle(9, "antipodal")
    with pytest.raises(InvalidDiscretizationError):
        rb.build_circle(3, "trivial")


def test_involution_is_exact_involution():
    for lat in all_test_lattices():
        tau = lat.involution
        assert np.array_equal(tau[tau], np.arange(lat.n_sites))
        # links and plaquettes return exactly after two applications
        assert np.array_equal(lat.link_image[lat.link_image], np.arange(lat.n_links))
        assert np.array_equal(
            lat.plaquette_image[lat.plaquette_image], np.arange(lat.n_plaquettes)
        )


def test_closed_surface_tiling():
    # every link appears in exactly two plaquettes with opposite orientation;
    # enforced at construction, re-checked here explicitly
    for lat in all_test_lattices():
        if lat.n_plaquettes == 0:
            continue
        net = np.zeros(lat.n_links, dtype=int)
        cnt = np.zeros(lat.n_links, dtype=int)
        for links, signs in zip(lat.plaquette_links, lat.plaquette_signs):
            for link_id, sign in zip(links[signs != 0], signs[signs != 0]):
                net[link_id] += sign
                cnt[link_id] += 1
        assert np.all(net == 0)
        assert np.all(cnt == 2)


def test_torus_eta_fixed_loops():
    lat = rb.build_torus2(8, 8, "eta")
    loops = rb.fixed_loops(lat)
    assert len(loops) == 2
    assert all(len(lp) == 8 for lp in loops)
    # ordered by theta2 value: 0 first, pi second
    assert lat.sites[loops[0].base][1] == 0.0
    assert lat.sites[loops[1].base][1] == pytest.approx(np.pi)


def test_torus_trivial_is_identity():
    lat = rb.build_torus2(8, 8, "trivial")
    assert np.array_equal(lat.involution, np.arange(lat.n_sites))
    assert not lat.orientation_flip


def test_torus_xi_fixed_set():
    # brute-force oracle: enumerate grid sites with theta2 = theta1 - theta2
    n = 8
    lat = rb.build_torus2(n, n, "xi")
    expected = {
        i * n + j for i in range(n) for j in range(n) if (i - j) % n == j
    }
    assert set(int(s) for s in lat.fixed_sites) == expected
    assert len(expected) == n  # two branches of n/2 grid sites each
    # the fixed sites are mutually non-adjacent, so no fixed loops exist
    assert rb.fixed_loops(lat) == []


def test_torus_xi_needs_square_grid():
    with pytest.raises(InvalidDiscretizationError):
        rb.build_torus2(8, 6, "xi")


def test_sphere_counts_and_fixed_loop():
    lat = rb.build_sphere2(6, 8)
    assert lat.n_plaquettes == (6 - 2) * 8 + 2 * 8
    # fixed set: both poles plus the phi in {0, pi} meridians
    assert lat.fixed_sites.size == 2 + 2 * (6 - 1)
    loops = rb.fixed_loops(lat)
    assert len(loops) == 1
    assert len(loops[0]) == 2 * (6 - 1) + 2
    assert lat.orientation_flip


def test_sphere_bad_sizes():
    with pytest.raises(InvalidDiscretizationError):
        rb.build_sphere2(6, 7)
    with pytest.raises(InvalidDiscretizationError):
        rb.build_sphere2(2, 8)


def test_orientation_flip_flags():
    assert not rb.build_circle(8, "trivial").orientation_flip
    assert rb.build_circle(8, "reflection").orientation_flip
    assert not rb.build_circle(8, "antipodal").orientation_flip
    assert rb.build_torus2(8, 8, "eta").orientation_flip
    assert rb.build_torus2(8, 8, "xi").orientation_flip


def test_map_loop_trivial_and_reflection():
    lat = rb.build_circle(8, "trivial")
    loop = rb.circle_loop(lat)
    assert rb.map_loop(lat, loop).sites == loop.sites

    refl = rb.build_circle(8, "reflection")
    image = rb.map_loop(refl, rb.circle_loop(refl))
    # full circle traversed with reversed orientation
    assert image.sites == (0, 7, 6, 5, 4, 3, 2, 1)


def test_map_loop_eta_row():
    lat = rb.build_torus2(8, 8, "eta")
    loop = rb.torus_row_loop(lat, mu=0, offset=2)  # theta2 = 2h
    image = rb.map_loop(lat, loop)
    assert lat.sites[image.base][1] == pytest.approx(2 * np.pi - lat.sites[loop.base][1])


def test_map_loop_rejects_off_lattice():
    lat = rb.build_torus2(8, 8, "eta")
    bad = rb.LoopPath((0, 2, 4))  # not links
    with pytest.raises(DomainError):
        rb.map_loop(lat, bad)


def test_fixed_loops_antipodal_empty_trivial_whole():
    assert rb.fixed_loops(rb.build_circle(8, "antipodal")) == []
    loops = rb.fixed_loops(rb.build_circle(8, "trivial"))
    assert len(loops) == 1 and len(loops[0]) == 8


def test_fixed_loops_invariant_under_map_loop():
    for lat in (rb.build_torus2(8, 8, "eta"), rb.build_sphere2(6, 8)):
        for lp in rb.fixed_loops(lat):
            image = rb.map_loop(lat, lp)
            assert set(image.sites) == set(lp.sites)


def test_trivial_torus_generator_loops():
    lat = rb.build_torus2(8, 6, "trivial")
    loops = rb.fixed_loops(lat)
    assert len(loops) == 2
    assert sorted(len(lp) for lp in loops) == [6, 8]


def test_reversed_orientation_roundtrip():
    lat = rb.build_sphere2(4, 6)
    rev = lat.with_reversed_orientation()
    assert rev.n_plaquettes == lat.n_plaquettes
    back = rev.with_reversed_orientation()
    assert np.array_equal(back.plaquette_corners, lat.plaquette_corners)
    # the caps' padding stays at the end of their rows
    cap = lat.plaquette_corners[0]
    assert np.array_equal(rev.plaquette_corners[0], cap[[2, 1, 0, 3]])


def test_trivial_torus_generators_are_row_loops():
    lat = rb.build_torus2(8, 6, "trivial")
    loops = rb.fixed_loops(lat)
    assert loops == [rb.torus_row_loop(lat, 0), rb.torus_row_loop(lat, 1)]
    assert loops[0].sites == (0, 6, 12, 18, 24, 30, 36, 42)
    assert loops[1].sites == tuple(range(6))


def test_link_midpoints_once_per_lattice_read_only():
    for lat in all_test_lattices():
        mids = lat.link_midpoints()
        assert lat.link_midpoints() is mids and not mids.flags.writeable
        with pytest.raises(ValueError):
            mids[0, 0] = 0.0
        for lk in (0, lat.n_links - 1):
            a, b = lat.sites[lat.link_tail[lk]], lat.sites[lat.link_head[lk]]
            step = (b - a + np.pi) % (2.0 * np.pi) - np.pi
            assert np.array_equal(lat.link_midpoint(lk), a + 0.5 * step)
        # a new lattice computes its own
        assert lat.with_reversed_orientation().link_midpoints() is not mids


@pytest.mark.parametrize("shape", [(4, 6), (96, 128)])
def test_sphere_midpoints_map_to_midpoints(shape):
    # a pole's phi is arbitrary, so a pole link's midpoint takes the other
    # end's meridian; tau then maps the midpoint of a link to that of its
    # image, and the Hamiltonian residual there stays at roundoff for odd k
    # too (the midpoint phi_j / 2 of the old unwrap gave 0.023 on 4 x 6)
    lat = rb.build_sphere2(*shape)
    mids = lat.link_midpoints()
    ht = lat.grid_spacing[0]
    caps = ((0, lat.link_head, ht / 2), (1, lat.link_tail, np.pi - ht / 2))
    for pole, end, theta in caps:  # the poles are sites 0 (north) and 1
        at = (lat.link_tail == pole) | (lat.link_head == pole)
        assert np.allclose(mids[at, 0], theta, rtol=0, atol=1e-15)
        assert np.array_equal(mids[at, 1], lat.sites[end[at], 1])
    for k in (1, 3, 5, -5):
        h, j = rb.model_degree_k_sphere(k)
        assert j.hamiltonian_residual(mids, h(mids), lat.link_image) <= 1e-13, k


def test_grid_shape_and_spacing():
    assert rb.build_circle(10, "reflection").shape == (10,)
    torus = rb.build_torus2(8, 6, "eta1")
    assert torus.shape == (8, 6)
    assert torus.grid_spacing == (2 * np.pi / 8, 2 * np.pi / 6)
    assert torus.with_reversed_orientation().shape == (8, 6)
    sphere = rb.build_sphere2(6, 8)
    assert sphere.shape == (6, 8)
    assert sphere.grid_spacing == (np.pi / 6, 2 * np.pi / 8)


def test_latitude_loop_rejects_rings_off_the_sphere():
    lat = rb.build_sphere2(6, 8)
    assert rb.latitude_loop(lat, 1).sites == tuple(range(2, 10))
    assert rb.latitude_loop(lat, 5).sites == tuple(range(34, 42))
    for ring in (0, 6, -1):
        with pytest.raises(DomainError, match=rf"ring {ring} outside 1..5"):
            rb.latitude_loop(lat, ring)


def test_torus_row_loop_rejects_other_directions():
    lat = rb.build_torus2(6, 4, "eta")
    assert rb.torus_row_loop(lat, 0, 1).sites == (1, 5, 9, 13, 17, 21)
    assert rb.torus_row_loop(lat, 1, 7).sites == (4, 5, 6, 7)
    for mu in (2, -1):
        with pytest.raises(DomainError, match=f"must be 0 or 1, got {mu}"):
            rb.torus_row_loop(lat, mu)


# -- agreement with the per-element builders in loop_reference -----------------

CIRCLE_KINDS = ("trivial", "reflection", "antipodal")
LATTICE_CASES = (
    [("circle", n, kind) for n in (4, 10) for kind in CIRCLE_KINDS]
    + [
        ("torus2", n1, n2, kind)
        for n1, n2 in ((4, 4), (6, 8), (8, 6), (10, 4))
        for kind in ("trivial", "eta", "eta1")
    ]
    + [("torus2", n, n, "xi") for n in (4, 6, 10)]
    + [("sphere2", n_th, n_ph) for n_th, n_ph in ((3, 4), (4, 6), (5, 10), (7, 8))]
    # the benchmark lattices
    + [("torus2", 48, 48, "eta1"), ("torus2", 128, 128, "eta"), ("sphere2", 96, 128)]
)

BUILDERS = {
    "circle": (rb.build_circle, ref.circle_fields),
    "torus2": (rb.build_torus2, ref.torus2_fields),
    "sphere2": (rb.build_sphere2, ref.sphere2_fields),
}


def assert_matches_reference(lat, fields):
    expected = {**fields, **ref.lattice_tables(fields)}
    for name, want in expected.items():
        got = getattr(lat, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


@pytest.mark.parametrize("case", LATTICE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_lattice_matches_per_element_builders(case):
    build, reference = BUILDERS[case[0]]
    lat, fields = build(*case[1:]), reference(*case[1:])
    assert_matches_reference(lat, fields)
    reverse = lat.with_reversed_orientation()
    assert_matches_reference(reverse, ref.reversed_fields(fields))


def test_link_lookup_matches_dict(rng):
    for lat in all_test_lattices():
        directed_link = ref.link_lookup(lat.link_tail, lat.link_head)
        n = lat.n_sites
        links = np.column_stack([lat.link_tail, lat.link_head])
        # off-grid ids too: the key tail * n_sites + head must not alias a link
        aliases = links + [-1, n]  # off the grid, with the key of a link
        randoms = rng.integers(-2, n + 3, (300, 2))
        pairs = np.concatenate([links, links[:, ::-1], aliases, randoms])
        for a, b in pairs.tolist():
            try:
                want = directed_link(a, b)
            except DomainError as exc:
                with pytest.raises(DomainError, match=rf"^{re.escape(str(exc))}$"):
                    lat.directed_link(a, b)
            else:
                assert lat.directed_link(a, b) == want
        loops = rb.fixed_loops(lat)
        for loop in loops + [lp.reversed() for lp in loops]:
            steps = zip(loop.sites, loop.sites[1:] + loop.sites[:1])
            assert lat.loop_link_ids(loop) == [directed_link(a, b) for a, b in steps]
    lat = rb.build_torus2(8, 8, "eta")
    with pytest.raises(DomainError, match=r"^\(2, 4\) is not a lattice link$"):
        lat.loop_link_ids(rb.LoopPath((0, 1, 2, 4, 3)))


# -- construction guards --------------------------------------------------------


def _with_row(lat, p, row):
    corners = lat.plaquette_corners.copy()
    corners[p] = row
    return {"plaquette_corners": corners}


def _with_swapped_sites(lat, a, b):
    tau = np.arange(lat.n_sites)
    tau[[a, b]] = [b, a]
    return {"involution": tau}


def _complete_graph_square():
    """Four sites, all six links, one square plaquette, tau swapping 0 and 1:
    the image of the square is its own vertex set in an order that is
    neither a rotation nor a reflection of it."""
    tail, head = np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])
    return {
        "sites": np.zeros((4, 2)),
        "link_tail": tail,
        "link_head": head,
        "link_mu": np.zeros(6, dtype=int),
        "link_spacing": np.ones(6),
        "plaquette_corners": np.array([[0, 1, 2, 3]]),
        "plaquette_centers": np.zeros((1, 2)),
        "plaquette_areas": np.ones(1),
        "involution": np.array([1, 0, 2, 3]),
    }


TORUS = rb.build_torus2(4, 4, "trivial")
ETA = rb.build_torus2(4, 4, "eta")
CIRCLE = rb.build_circle(8, "trivial")
SPHERE = rb.build_sphere2(3, 4)
XI = rb.build_torus2(4, 4, "xi")

MALFORMED = {
    "not-an-involution": (
        CIRCLE,
        {"involution": np.roll(np.arange(8), 1)},
        InvalidDiscretizationError,
        "involution is not an exact involution",
    ),
    "plaquette-edge-not-a-link": (
        TORUS,
        _with_row(TORUS, 5, np.sort(TORUS.plaquette_corners[5])),
        DomainError,
        "(6, 9) is not a lattice link",
    ),
    "link-image-not-a-link": (
        TORUS,
        _with_swapped_sites(TORUS, 0, 5),
        InvalidDiscretizationError,
        "involution does not map link 7 to a link",
    ),
    "plaquette-image-not-a-plaquette": (
        ETA,
        _with_row(ETA, 3, ETA.plaquette_corners[0]),
        InvalidDiscretizationError,
        "involution does not map plaquette 0 to a plaquette",
    ),
    "scrambled-plaquette": (
        CIRCLE,
        _complete_graph_square(),
        InvalidDiscretizationError,
        "involution scrambles plaquette 0",
    ),
    "open-tiling": (
        TORUS,
        {"plaquette_corners": TORUS.plaquette_corners[:-1]},
        InvalidDiscretizationError,
        "plaquettes do not tile a closed surface",
    ),
    # one plaquette reversed: every image is found, but not from the link
    # incidence, which the reversed row overwrites
    "reversed-plaquette": (
        ETA,
        _with_row(ETA, 5, ETA.plaquette_corners[5, ::-1]),
        InvalidDiscretizationError,
        "plaquettes do not tile a closed surface",
    ),
    # numpy gathers wrap negative ids, so the corner table is checked first
    "corner-hole": (
        SPHERE,
        _with_row(SPHERE, 2, [2, -1, 3, 4]),
        InvalidDiscretizationError,
        "plaquette 2 has a -1 hole before a corner",
    ),
    "corner-past-the-grid": (
        TORUS,
        _with_row(TORUS, 6, [6, 10, 16, 7]),
        InvalidDiscretizationError,
        "plaquette 6 has a corner id off the grid",
    ),
    "corner-below-padding": (
        SPHERE,
        _with_row(SPHERE, 1, [0, 3, 4, -2]),
        InvalidDiscretizationError,
        "plaquette 1 has a corner id off the grid",
    ),
    "two-corners": (
        TORUS,
        _with_row(TORUS, 4, [4, 8, -1, -1]),
        InvalidDiscretizationError,
        "plaquette 4 has fewer than 3 corners",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_construction_guards(case):
    base, changes, error, message = MALFORMED[case]
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base) if f.init}
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        ref.lattice_tables({**fields, **changes})
    with pytest.raises(error, match=rf"^{re.escape(message)}$"):
        dataclasses.replace(base, **changes)
    # the boundary links a builder stated for the old corners change nothing
    fields.update(changes)
    if fields["plaquette_corners"].shape == base.plaquette_corners.shape:
        with pytest.raises(error, match=rf"^{re.escape(message)}$"):
            rb.InvolutiveLattice(**fields, boundary_links=base.plaquette_links)


@pytest.mark.parametrize("build", [lambda: TORUS, lambda: SPHERE, lambda: XI])
def test_stated_boundary_links_are_checked(build, rng):
    """A stated link that does not join its two corners is looked up, so a
    wrong statement cannot reach the tables."""
    lat = build()
    fields = {f.name: getattr(lat, f.name) for f in dataclasses.fields(lat) if f.init}
    links = lat.plaquette_links.copy()
    wrong = rng.random(links.shape) < 0.5
    links[wrong] = rng.integers(-3, lat.n_links + 3, wrong.sum())
    got = rb.InvolutiveLattice(**fields, boundary_links=links)
    for name in ("plaquette_links", "plaquette_signs", "plaquette_image",
                 "plaquette_image_sign"):
        assert np.array_equal(getattr(got, name), getattr(lat, name)), name


def count_lookups(monkeypatch) -> list:
    """The sizes of the link lookups made from here on, one per lookup."""
    queries = []
    lookup = rb.InvolutiveLattice._signed_links

    def counted(self, a, b):
        queries.extend([a.size] if a.size else [])
        return lookup(self, a, b)

    monkeypatch.setattr(rb.InvolutiveLattice, "_signed_links", counted)
    return queries


@pytest.mark.parametrize("build", [lambda: TORUS, lambda: ETA, lambda: SPHERE, lambda: XI,
                                   lambda: rb.build_circle(8, "reflection")])
def test_stated_link_images_are_checked(build, rng):
    """A stated link image that does not join the images of its link's ends
    is looked up, so a wrong statement cannot reach the tables."""
    lat = build()
    fields = {f.name: getattr(lat, f.name) for f in dataclasses.fields(lat) if f.init}
    image = lat.link_image.copy()
    wrong = rng.random(image.shape) < 0.5
    image[wrong] = rng.integers(-3, lat.n_links + 3, wrong.sum())
    got = rb.InvolutiveLattice(**fields, boundary_links=lat.plaquette_links,
                               image_links=image)
    for name in ("link_image", "link_image_sign", "plaquette_links", "plaquette_signs",
                 "plaquette_image", "plaquette_image_sign"):
        have, want = getattr(got, name), getattr(lat, name)
        assert have.dtype == want.dtype and np.array_equal(have, want), name


def count_lookups(monkeypatch) -> list:
    """The sizes of the link lookups made from here on, one per lookup."""
    queries = []
    lookup = rb.InvolutiveLattice._signed_links

    def counted(self, a, b):
        queries.extend([a.size] if a.size else [])
        return lookup(self, a, b)

    monkeypatch.setattr(rb.InvolutiveLattice, "_signed_links", counted)
    return queries


@pytest.mark.parametrize("case", [("torus2", 6, 6, "xi"), ("torus2", 8, 6, "eta"),
                                  ("torus2", 6, 8, "eta1"), ("sphere2", 4, 6),
                                  ("circle", 8, "reflection")])
def test_builders_state_every_boundary_link(case, monkeypatch):
    """The builders' boundary links and link images all pass the gather
    check: a build makes no link lookup at all."""
    queries = count_lookups(monkeypatch)
    BUILDERS[case[0]][0](*case[1:])
    assert queries == []


@pytest.mark.parametrize("case", LATTICE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_reversed_copy_states_its_boundary_links(case, monkeypatch):
    """The reversed copy states every plaquette step's link and every link
    image and carries the tree, so it makes no link lookup, and its tables
    equal those of the same corners with every step and image looked up."""
    lat = BUILDERS[case[0]][0](*case[1:])
    queries = count_lookups(monkeypatch)
    reverse = lat.with_reversed_orientation()
    assert queries == []
    assert np.array_equal(reverse.tree_links, lat.tree_links)
    init = [f.name for f in dataclasses.fields(reverse) if f.init]
    looked_up = rb.InvolutiveLattice(**{name: getattr(reverse, name) for name in init})
    assert len(queries) == (2 if lat.n_plaquettes else 1)
    for name in ("plaquette_links", "plaquette_signs", "link_image", "link_image_sign",
                 "plaquette_image", "plaquette_image_sign", "tree_parent"):
        got, want = getattr(reverse, name), getattr(looked_up, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


# -- the spanning tree ----------------------------------------------------------


def walk_to_root(parent: np.ndarray) -> np.ndarray:
    """Depth of each site along `parent` (the root its own parent), walked
    one step at a time; -1 where the walk never reaches the root."""
    n, parent = parent.size, parent.tolist()
    root = next(site for site in range(n) if parent[site] == site)
    depth = np.full(n, -1)
    for site in range(n):
        at, steps = site, 0
        while parent[at] != at and steps <= n:
            at, steps = parent[at], steps + 1
        if at == root:
            depth[site] = steps
    return depth


@pytest.mark.parametrize("case", LATTICE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_builders_state_spanning_trees(case):
    """n - 1 tree links, each joining its site to the parent, and every site
    reaches the root, site 0."""
    lat = BUILDERS[case[0]][0](*case[1:])
    assert np.flatnonzero(lat.tree_links == -1).tolist() == [0]
    tree = ref.spanning_tree(lat)  # asserts each link ends at its site
    assert len(tree) == lat.n_sites - 1
    parent = np.arange(lat.n_sites)
    for child, par, _ in tree:
        parent[child] = par
        link = lat.tree_links[child]
        assert {lat.link_tail[link], lat.link_head[link]} == {child, par}
    assert np.array_equal(lat.tree_parent, parent)
    depth = walk_to_root(parent)
    assert depth.min() == 0 and np.array_equal(depth[[c for c, _, _ in tree]],
                                               [d for _, _, d in tree])


def root_fixed_component(lat) -> set:
    """The fixed sites joined to site 0 by links with both ends fixed."""
    fixed = lat.involution == np.arange(lat.n_sites)
    inside = fixed[lat.link_tail] & fixed[lat.link_head]
    pairs = list(zip(lat.link_tail[inside].tolist(), lat.link_head[inside].tolist()))
    comp, grown = {0}, True
    while grown:
        new = {b for a, b in pairs if a in comp} | {a for a, b in pairs if b in comp}
        grown = not new <= comp
        comp |= new
    return comp


@pytest.mark.parametrize("case", [c for c in LATTICE_CASES
                                  if c[-1] not in ("xi", "antipodal")],
                         ids=lambda c: "-".join(map(str, c)))
def test_trees_are_tau_symmetric(case):
    """parent(tau s) = tau parent(s), link for link, at every site but the
    fixed sites off the root's fixed component: no tau-symmetric tree reaches
    them, and they are leaves."""
    lat = BUILDERS[case[0]][0](*case[1:])
    tau, links = lat.involution, lat.tree_links
    fixed = tau == np.arange(lat.n_sites)
    off = fixed & ~np.isin(np.arange(lat.n_sites), sorted(root_fixed_component(lat)))
    hung = links >= 0
    symmetric = np.ones(lat.n_sites, dtype=bool)
    symmetric[hung] = lat.link_image[links[hung]] == links[tau[hung]]
    assert np.array_equal(~symmetric, off)
    assert not np.isin(lat.tree_parent[hung], np.flatnonzero(off)).any()
    if case[0] == "sphere2" or case[-1] == "trivial":
        assert not off.any()


def _tree_fields(lat, tree):
    fields = {f.name: getattr(lat, f.name) for f in dataclasses.fields(lat) if f.init}
    return {**fields, "tree_links": tree}


@pytest.mark.parametrize("build", [lambda: rb.build_sphere2(5, 8),
                                   lambda: rb.build_torus2(6, 8, "eta"),
                                   lambda: rb.build_circle(10, "reflection")])
def test_planted_tree_faults_name_the_site(build, rng):
    lat = build()
    n = lat.n_sites
    # a link that does not end at its site, or an id off the link table
    for site in rng.choice(np.arange(1, n), 3, replace=False).tolist():
        tree = lat.tree_links.copy()
        away = (lat.link_tail != site) & (lat.link_head != site)
        for bad in (rng.choice(np.flatnonzero(away)), lat.n_links, -2):
            tree[site] = bad
            message = f"tree link of site {site} does not end at it"
            with pytest.raises(InvalidDiscretizationError, match=rf"^{message}$"):
                rb.InvolutiveLattice(**_tree_fields(lat, tree))
    # a cycle (a parent below the root hangs from its child) and a second
    # root each cut off a subtree, whose lowest site is named
    ids = np.arange(n)
    for site in rng.choice(np.flatnonzero(lat.tree_parent > 0), 3, replace=False).tolist():
        cycle, second_root = lat.tree_links.copy(), lat.tree_links.copy()
        cycle[lat.tree_parent[site]] = lat.tree_links[site]
        second_root[site] = -1
        for tree in (cycle, second_root):
            parent = np.where(tree < 0, ids, lat.link_tail[tree] + lat.link_head[tree] - ids)
            lowest = np.flatnonzero(walk_to_root(parent) < 0)[0]
            message = f"tree does not bring site {lowest} to the root"
            with pytest.raises(InvalidDiscretizationError, match=rf"^{message}$"):
                rb.InvolutiveLattice(**_tree_fields(lat, tree))
    # every existing construction guard comes first
    tree = lat.tree_links.copy()
    tree[1] = -5
    fields = {**_tree_fields(lat, tree), "involution": np.roll(np.arange(n), 1)}
    with pytest.raises(InvalidDiscretizationError, match="^involution is not an exact"):
        rb.InvolutiveLattice(**fields)
