"""The stacked-array kernels against the per-element loop reference.

Gauge-invariant outputs (Chern values, plaquette flux traces, fixed-loop
traces and determinant signs, symmetry residual maxima) must agree with
tests/loop_reference.py to 1e-12.  Frames may differ by a site gauge (for
rank > 1 the kernels keep the Hamiltonian's eigenvectors, the reference
diagonalizes the projector), so gauge-dependent arrays are compared through
their invariants.  Failures must raise the same error class naming the same
site, link or plaquette.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
from conftest import mobius_two_band
from realbloch import spectral
from realbloch.classify import _BASE_TABLE, _j_consistency
from realbloch.errors import (
    BranchCutError,
    DiscretizationError,
    DomainError,
    GapClosureError,
    ModelError,
    RankError,
)

TOL = 1e-12


def sphere_case(k):
    return lambda: (*rb.model_degree_k_sphere(k), rb.build_sphere2(10, 16), [0])


def oscillator_case(bands):
    # 16 x 16 sites with N = 24 span two blocks of involution orbits
    def build():
        lat = rb.build_torus2(16, 16, "eta1")
        h, j = rb.model_oscillator(rb.OscillatorParams(level=0, n_basis=24), lat)
        return h, j, lat, bands

    return build


HAMILTONIAN_CASES = {
    **{f"sphere-k{k:+d}": sphere_case(k) for k in (-3, -2, -1, 1, 2, 3)},
    "oscillator-rank1": oscillator_case([0]),
    "oscillator-rank2": oscillator_case([0, 1]),
    "mobius-two-band-circle": lambda: (
        *mobius_two_band(), rb.build_circle(24, "trivial"), [0]
    ),
    # rank 2 on the sphere: a Whitney sum of degrees 1 and -2
    "sphere-sum-rank2": lambda: (
        *rb.direct_sum_hamiltonians(
            rb.model_degree_k_sphere(1), rb.model_degree_k_sphere(-2)
        ),
        rb.build_sphere2(10, 16),
        [0, 1],
    ),
}

PRODUCT_CASES = {
    "mobius-eta-torus": lambda: (
        rb.model_mobius_pullback_torus(), rb.build_torus2(12, 12, "eta")
    ),
    "trivial-line-xi-torus": lambda: (
        rb.model_trivial_line("torus2-xi", 2), rb.build_torus2(8, 8, "xi")
    ),
    "mobius-circle": lambda: (rb.model_mobius_circle(), rb.build_circle(20, "trivial")),
    "trivial-line-reflection-circle": lambda: (
        rb.model_trivial_line("circle-reflection", 1), rb.build_circle(16, "reflection")
    ),
    "flat-line-reflection-circle": lambda: (
        rb.model_flat_line(0.3), rb.build_circle(16, "reflection")
    ),
    "mobius-sum-antipodal-circle": lambda: (
        rb.direct_sum_specs(
            rb.model_trivial_line("circle-antipodal", 1),
            rb.model_trivial_line("circle-antipodal", 1),
        ),
        rb.build_circle(12, "antipodal"),
    ),
}


def flux_traces(u, lat, curvature):
    return np.trace(curvature(u, lat).f, axis1=1, axis2=2)


def loop_invariants(u, lat, w, holonomies=rb.fixed_loop_holonomies):
    recs = holonomies(u, lat, w)
    return [r.holonomy.trace for r in recs], [r.sign for r in recs]


def expected_torsion(lat, signs):
    return signs if _BASE_TABLE[lat.base_tag][2] else []


def assert_same_loops(new, old):
    (traces, signs), (traces_ref, signs_ref) = new, old
    assert signs == signs_ref
    assert np.allclose(traces, traces_ref, rtol=0, atol=TOL)


@pytest.mark.parametrize("case", sorted(HAMILTONIAN_CASES))
def test_hamiltonian_pipeline_matches_loops(case):
    h, j, lat, bands = HAMILTONIAN_CASES[case]()

    s = rb.eigensolve_family(h, lat)
    s_ref = ref.eigensolve_family(h, lat)
    assert np.max(np.abs(s.eigenvalues - s_ref.eigenvalues)) <= TOL

    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    res_h, res_j = ref.verify_hamiltonian_symmetry(h, j, lat)
    assert abs(rep.hamiltonian_residual - res_h) <= TOL
    assert abs(rep.unitary_residual - res_j) <= TOL

    p = rb.select_projection(s, bands)
    p_ref = ref.select_projection(s_ref, bands)
    assert np.max(np.abs(p.projectors - p_ref)) <= TOL
    pres = rb.verify_projection_symmetry(p, j, lat)
    assert abs(pres - ref.verify_projection_symmetry(p_ref, j, lat)) <= TOL

    f = rb.frame_from_projection(p)
    f_ref = ref.frame_from_projection(p_ref, len(p.band_indices), lat)
    span = f.columns @ f.columns.conj().swapaxes(1, 2)
    span_ref = f_ref.columns @ f_ref.columns.conj().swapaxes(1, 2)
    assert np.max(np.abs(span - span_ref)) <= TOL

    u, u_ref = rb.link_field(f, lat), ref.link_field(f_ref, lat)
    w, w_ref = rb.sewing_matrix(f, j, lat), ref.sewing_matrix(f_ref, j, lat)
    assert abs(w.unitarity_residual - w_ref.unitarity_residual) <= TOL
    eq = rb.equivariance_residual(u, w, lat)
    assert abs(eq - ref.equivariance_residual(u_ref, w_ref, lat)) <= TOL

    if lat.dim == 2:
        traces = flux_traces(u, lat, rb.plaquette_curvature)
        traces_ref = flux_traces(u_ref, lat, ref.plaquette_curvature)
        assert np.max(np.abs(traces - traces_ref)) <= TOL
        value, _ = rb.chern_number(rb.plaquette_curvature(u, lat), lat)
        value_ref = ref.chern_value(ref.plaquette_curvature(u_ref, lat), lat)
        assert abs(value - value_ref) <= TOL
    loops_ref = loop_invariants(u_ref, lat, w_ref, ref.fixed_loop_holonomies)
    assert_same_loops(loop_invariants(u, lat, w), loops_ref)

    result = rb.classify_real_bundle(h, j, lat, bands)
    if lat.dim == 2:
        assert abs(result.diagnostics["chern_value"] - value_ref) <= TOL
    signs_ref = loops_ref[1]
    assert result.torsion == expected_torsion(lat, signs_ref)
    assert abs(result.diagnostics["projection_residual"] - pres) <= TOL


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_product_pipeline_matches_loops(case):
    spec, lat = PRODUCT_CASES[case]()
    u = rb.link_field_from_connection(spec, lat)
    u_ref = ref.link_field_from_connection(spec, lat)
    assert np.max(np.abs(u.u - u_ref.u)) <= TOL
    assert abs(_j_consistency(spec.j, lat) - ref.j_consistency(spec.j, lat)) <= TOL

    w = rb.SewingField(spec.j(lat.sites), lat, spec.j.parity, 0.0)
    eq = rb.equivariance_residual(u, w, lat)
    assert abs(eq - ref.equivariance_residual(u_ref, w, lat)) <= TOL

    a = rb.local_connection_from_links(u)
    assert np.max(np.abs(a.a - ref.local_connection_from_links(u_ref).a)) <= TOL
    relinked = rb.link_field_from_connection(a, lat)
    assert np.max(np.abs(relinked.u - ref.link_field_from_connection(a, lat).u)) <= TOL

    result = rb.classify_real_bundle(spec, lat=lat)
    if lat.dim == 2:
        traces = flux_traces(u, lat, rb.plaquette_curvature)
        traces_ref = flux_traces(u_ref, lat, ref.plaquette_curvature)
        assert np.max(np.abs(traces - traces_ref)) <= TOL
        value_ref = ref.chern_value(ref.plaquette_curvature(u_ref, lat), lat)
        assert abs(result.diagnostics["chern_value"] - value_ref) <= TOL
    loops_ref = loop_invariants(u_ref, lat, w, ref.fixed_loop_holonomies)
    assert_same_loops(loop_invariants(u, lat, w), loops_ref)
    assert result.torsion == expected_torsion(lat, loops_ref[1])


@pytest.mark.parametrize(
    "case", ["sphere-k+2", "oscillator-rank2", "mobius-two-band-circle"]
)
def test_smooth_frame_gauge_matches_loop(case):
    # same breadth-first tree, one batched polar decomposition per depth
    h, _, lat, bands = HAMILTONIAN_CASES[case]()
    p = rb.select_projection(rb.eigensolve_family(h, lat), bands)
    frame = rb.frame_from_projection(p)
    got = rb.smooth_frame_gauge(frame, lat)
    want = ref.smooth_frame_gauge(frame, lat)
    assert got.gauge_tag == want.gauge_tag == "tree-smoothed"
    assert np.max(np.abs(got.columns - want.columns)) <= TOL


def random_matrices(rng, n, m):
    return rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))


# -- loops: one signed link table and one ordered product ----------------------

SHIPPED_LATTICES = {
    **{
        f"circle-{kind}": (rb.build_circle, 12, kind)
        for kind in ("trivial", "reflection", "antipodal")
    },
    **{
        f"torus-{kind}": (rb.build_torus2, 8, 12, kind)
        for kind in ("trivial", "eta", "eta1")
    },
    "torus-xi": (rb.build_torus2, 10, 10, "xi"),
    "sphere": (rb.build_sphere2, 7, 10),
    # the benchmark lattices
    "eta-128": (rb.build_torus2, 128, 128, "eta"),
    "eta1-48": (rb.build_torus2, 48, 48, "eta1"),
    "sphere-96x128": (rb.build_sphere2, 96, 128),
}


@pytest.mark.parametrize("case", sorted(SHIPPED_LATTICES))
def test_fixed_loops_match_dict_walk(case):
    build, *args = SHIPPED_LATTICES[case]
    lat = build(*args)
    for lattice in (lat, lat.with_reversed_orientation()):
        assert rb.fixed_loops(lattice) == ref.fixed_loops(lattice)


def test_fixed_loops_match_dict_walk_on_random_graphs(rng):
    # fixed sets with branches, dead ends, self and parallel links: the walk
    # reads only these fields of a lattice
    for _ in range(300):
        n = int(rng.integers(4, 14))
        tau = np.arange(n)
        moved = rng.permutation(n)[: 2 * int(rng.integers(0, n // 3 + 1))]
        tau[moved] = moved.reshape(-1, 2)[:, ::-1].ravel()
        fixed = np.flatnonzero(tau == np.arange(n))
        ring = rng.permutation(fixed)[: int(rng.integers(0, fixed.size + 1))]
        extra = rng.integers(0, n, (int(rng.integers(0, 4)), 2))
        links = np.concatenate([np.column_stack([ring, np.roll(ring, -1)]), extra])
        lat = SimpleNamespace(
            n_sites=n,
            dim=1,
            sites=rng.integers(0, 3, (n, 1)).astype(float),
            involution=tau,
            fixed_sites=fixed,
            link_tail=links[:, 0],
            link_head=links[:, 1],
        )
        assert rb.fixed_loops(lat) == ref.fixed_loops(lat)


def real_link_field(lat, m, rng):
    """Random orthogonal links in a random site gauge g, with the sewing
    field g^dag conj(g) of that gauge: every fixed-loop holonomy has
    determinant +/-1, so its sign rounds."""
    o = np.linalg.qr(rng.normal(size=(lat.n_links, m, m)))[0]
    g = np.linalg.qr(random_matrices(rng, lat.n_sites, m))[0]
    u = rb.gauge_transform(rb.LinkField(o.astype(complex), lat), g)
    w = rb.SewingField(g.conj().swapaxes(1, 2) @ g.conj(), lat, +1, 0.0)
    return u, w


LOOP_LATTICES = {
    "sphere-12x16": lambda: rb.build_sphere2(12, 16),
    # generator loops of lengths 8 and 12: the shorter row is padded
    "trivial-torus-8x12": lambda: rb.build_torus2(8, 12, "trivial"),
    "eta-torus-16x16": lambda: rb.build_torus2(16, 16, "eta"),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(LOOP_LATTICES))
def test_loop_products_match_per_link_bitwise(case, m):
    lat = LOOP_LATTICES[case]()
    u, w = real_link_field(lat, m, np.random.default_rng(m))
    loops = rb.fixed_loops(lat)
    cells = [rb.LoopPath(verts) for verts in lat.plaquette_vertices[:4]]
    probes = loops + [lp.reversed() for lp in loops] + cells
    for loop in probes + [rb.map_loop(lat, lp) for lp in probes]:
        got, want = rb.wilson_loop(u, loop), ref.wilson_loop(u, loop)
        assert got.hol.tobytes() == want.hol.tobytes()
        assert (got.loop, got.base, got.gauge_tag) == (want.loop, want.base, "frame")
    for loop in probes:
        # the loop and its image, one per-link Wilson loop each
        hol = ref.wilson_loop(u, loop).hol
        image = ref.wilson_loop(u, rb.map_loop(lat, loop)).hol
        wb = w.w[loop.base]
        defect = ref.frob(wb.conj().T @ image @ wb - hol.conj())
        assert rb.holonomy_equivariance_check(u, w, loop, lat) == defect

    recs = rb.fixed_loop_holonomies(u, lat, w)
    recs_ref = ref.fixed_loop_holonomies(u, lat, w)
    assert len(recs) == len(recs_ref) == len(loops) > 0
    for rec, rec_ref in zip(recs, recs_ref):
        assert rec.holonomy.hol.tobytes() == rec_ref.holonomy.hol.tobytes()
        assert rec.holonomy.loop == rec_ref.holonomy.loop
        assert rec.reality_residual == rec_ref.reality_residual < 1e-12
        assert rec.sign == rec_ref.sign


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gauge_transform_and_densities_match_loops(rng, m):
    lat = rb.build_sphere2(6, 8)  # triangles among quads: padded plaquette rows
    # small random anti-Hermitian steps keep every plaquette off the branch cut
    gen = 0.1 * random_matrices(rng, lat.n_links, m)
    steps = rb.LocalConnectionForm(gen - gen.conj().swapaxes(1, 2), lat)
    links = rb.link_field_from_connection(steps, lat)
    g, _ = np.linalg.qr(random_matrices(rng, lat.n_sites, m))
    out, out_ref = rb.gauge_transform(links, g), ref.gauge_transform(links, g)
    assert np.max(np.abs(out.u - out_ref.u)) <= TOL
    curv = rb.plaquette_curvature(out, lat)
    curv_ref = ref.plaquette_curvature(out_ref, lat)
    assert np.max(np.abs(curv.f - curv_ref.f)) <= TOL
    for k in range(1, m + 1):
        dens = rb.chern_weil_density(curv, k)
        assert np.max(np.abs(dens - ref.chern_weil_density(curv_ref, k))) <= TOL
    parity = rb.curvature_parity_check(curv, lat)
    tr = np.trace(curv_ref.f, axis1=1, axis2=2)
    parity_ref = max(
        abs(lat.plaquette_image_sign[p] * tr[lat.plaquette_image[p]] - np.conj(tr[p]))
        for p in range(lat.n_plaquettes)
    )
    assert abs(parity - parity_ref) <= TOL


# -- the sector-split eigensolve against per-site dense eigh -------------------


def path_pattern(dim):
    """Diagonal plus entries (i, i + 2): the even and the odd indices each
    form a path, tridiagonal in index order, like the oscillator's parity
    sectors."""
    mask = np.eye(dim, dtype=bool)
    i = np.arange(dim - 2)
    mask[i, i + 2] = mask[i + 2, i] = True
    return mask


def trig_family(rng, pattern, shift, gates=(), name="trig"):
    """H0 + cos t H1 + sin t H2 + diag(shift) over the circle angle t, with
    random complex Hermitian terms supported on `pattern`.  Each gate
    (i, j, g) multiplies entries (i, j) and (j, i) by g(t), which may vanish
    exactly on part of the circle."""
    terms = random_matrices(rng, 3, len(pattern)) * pattern
    terms = terms + terms.conj().swapaxes(1, 2)

    def evaluate(c):
        t = c[:, 0]
        cos, sin = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
        h = terms[0] + cos * terms[1] + sin * terms[2] + np.diag(shift)
        for i, j, gate in gates:
            h[:, i, j] *= gate(t)
            h[:, j, i] *= gate(t)
        return h

    return rb.HamiltonianFamily(len(pattern), evaluate, name)


def dense_beside_pair():
    # a dense 4 x 4 sector (not tridiagonal) and a 2 x 2 one below it, so
    # the merge must reorder the sectors' eigenvalues
    rng = np.random.default_rng(41)
    dense = trig_family(rng, np.ones((4, 4), dtype=bool), np.zeros(4))
    pair = trig_family(rng, np.ones((2, 2), dtype=bool), np.full(2, -20.0))
    h, _ = rb.direct_sum_hamiltonians(
        (dense, rb.SymmetryData.identity(4)), (pair, rb.SymmetryData.identity(2))
    )
    return h, rb.build_circle(24, "trivial"), [[0], [0, 1], [2], [2, 3, 4, 5]]


def coupled_in_some_blocks():
    # N = 32: blocks of 16 sites on a 64-site circle.  The coupling of the
    # two path sectors, entry (0, 1), vanishes for t >= pi and at t = 0, the
    # first site of the first block, so the first two blocks are one sector
    # and the last two split in two
    rng = np.random.default_rng(42)
    shift = np.where(np.arange(32) % 2, 0.0, -50.0)  # even sector below
    pattern = path_pattern(32)
    pattern[0, 1] = pattern[1, 0] = True
    gate = (0, 1, lambda t: np.where(t < np.pi, np.sin(t), 0.0))
    h = trig_family(rng, pattern, shift, [gate])
    return h, rb.build_circle(64, "trivial"), [[0], list(range(16))]


def sub_diagonal_zero_at_some_sites():
    # entry (2, 4) of the even path vanishes for cos t <= 0: there the even
    # sector's tridiagonal matrix has a zero sub-diagonal entry
    rng = np.random.default_rng(43)
    shift = np.where(np.arange(8) % 2, 0.0, -50.0)
    gate = (2, 4, lambda t: np.maximum(np.cos(t), 0.0))
    h = trig_family(rng, path_pattern(8), shift, [gate])
    return h, rb.build_circle(16, "trivial"), [[0], [0, 1, 2, 3], [4]]


def oscillator_sectors():
    lat = rb.build_torus2(6, 6, "eta1")  # 36 sites in 4 blocks of 10
    h, _ = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
    return h, lat, [[1], [0, 1]]


SECTOR_CASES = {
    "oscillator-N40": oscillator_sectors,
    "dense-4-beside-2": dense_beside_pair,
    "coupled-in-some-blocks": coupled_in_some_blocks,
    "sub-diagonal-zero-at-some-sites": sub_diagonal_zero_at_some_sites,
    "N1": lambda: (
        rb.HamiltonianFamily(1, lambda c: np.cos(c[:, :1, None]) + 0j, "scalar"),
        rb.build_circle(8, "trivial"),
        [[0]],
    ),
}


@pytest.mark.parametrize("case", sorted(SECTOR_CASES))
def test_sector_eigensolve_matches_dense(case):
    h, lat, groups = SECTOR_CASES[case]()
    s, s_ref = rb.eigensolve_family(h, lat), ref.eigensolve_family(h, lat)
    stack = h(lat.sites)
    scale = TOL * np.linalg.norm(stack, axis=(1, 2))
    assert np.all(np.abs(s.eigenvalues - s_ref.eigenvalues) <= scale[:, None])
    residual = stack @ s.eigenvectors - s.eigenvectors * s.eigenvalues[:, None, :]
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= scale)
    for bands in groups:
        p = rb.select_projection(s, bands).projectors
        assert np.max(np.abs(p - ref.select_projection(s_ref, bands))) <= TOL, bands


def test_sectors_follow_the_nonzero_pattern():
    def split(pattern):
        return [(list(idx), path) for idx, path in spectral._sectors(pattern)]

    evens, odds = list(range(0, 8, 2)), list(range(1, 8, 2))
    assert split(path_pattern(8)) == [(evens, True), (odds, True)]
    dense = np.zeros((6, 6), dtype=bool)
    dense[:4, :4] = dense[4:, 4:] = True
    assert split(dense) == [([0, 1, 2, 3], False), ([4, 5], True)]
    assert split(np.eye(3, dtype=bool)) == [([0], True), ([1], True), ([2], True)]
    assert split(np.ones((3, 3), dtype=bool)) == [([0, 1, 2], False)]


def test_degeneracy_across_sectors_names_same_site():
    # real sectors {0, 2} and {1, 3} (symmetric under the trivial
    # involution) with spectra {-1, 1} and {b - 1, b + 1}, b = 2 + 2 cos t:
    # bands 0 and 1 coincide at t = pi only, site 8
    lat = rb.build_circle(16, "trivial")

    def evaluate(c):
        b = 2.0 + 2.0 * np.cos(c[:, 0])
        h = np.zeros((len(b), 4, 4), dtype=complex)
        h[:, 0, 2] = h[:, 2, 0] = h[:, 1, 3] = h[:, 3, 1] = 1.0
        h[:, 1, 1] = h[:, 3, 3] = b
        return h

    h = rb.HamiltonianFamily(4, evaluate, "crossing")
    with pytest.raises(GapClosureError) as got:
        rb.select_projection(rb.eigensolve_family(h, lat), [0])
    with pytest.raises(GapClosureError) as want:
        ref.select_projection(ref.eigensolve_family(h, lat), [0])
    assert got.value.site == want.value.site == 8
    with pytest.raises(GapClosureError) as got:
        rb.classify_real_bundle(h, rb.SymmetryData.identity(4), lat, [0])
    assert got.value.site == 8


# -- failures name the same site, link or plaquette --------------------------


def same_failure(error, new, old):
    with pytest.raises(error) as got:
        new()
    with pytest.raises(error) as want:
        old()
    assert str(got.value) == str(want.value)
    return got.value


def test_gap_closure_names_same_site():
    lat = rb.build_circle(16, "trivial")
    # the two bands touch at theta = pi only, site 8
    h = rb.HamiltonianFamily(
        2, rb.pointwise(lambda c: np.diag([0.0, 1.0 + np.cos(c[0])])), "touching"
    )
    s = rb.eigensolve_family(h, lat)
    err = same_failure(
        GapClosureError,
        lambda: rb.select_projection(s, [0]),
        lambda: ref.select_projection(ref.eigensolve_family(h, lat), [0]),
    )
    assert err.site == 8
    with pytest.raises(GapClosureError) as got:
        rb.classify_real_bundle(h, rb.SymmetryData.identity(2), lat, [0])
    assert got.value.site == 8


@pytest.mark.parametrize("dim", [2, 64])
def test_non_hermitian_names_same_site(dim):
    # non-Hermitian past theta = 1.1 pi, first at site 23; with N = 64 that
    # site lies in the second block of the batched eigensolve, and the
    # matrix splits into the sector {0, 1} and 62 diagonal ones
    lat = rb.build_circle(40, "trivial")
    base = np.diag(np.arange(dim, dtype=complex))

    def evaluate(c):
        mat = base.copy()
        mat[0, 1] = mat[1, 0] = 0.5
        if c[0] > 1.1 * np.pi:
            mat[1, 0] += 1.0
        return mat

    h = rb.HamiltonianFamily(dim, rb.pointwise(evaluate), "skew")
    same_failure(
        ModelError,
        lambda: rb.eigensolve_family(h, lat),
        lambda: ref.eigensolve_family(h, lat),
    )


def test_singular_overlap_names_same_link():
    lat = rb.build_circle(8, "trivial")
    cols = np.zeros((8, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    cols[5] = [[0.0], [1.0]]  # orthogonal to both neighbors: links 4 and 5
    f = rb.Frame(cols, lat)
    same_failure(
        DiscretizationError,
        lambda: rb.link_field(f, lat),
        lambda: ref.link_field(f, lat),
    )


def test_non_finite_overlap_raises():
    # a NaN frame must not pass the singular-overlap check unnoticed
    lat = rb.build_circle(8, "trivial")
    cols = np.zeros((8, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    cols[5, 0, 0] = np.nan
    with pytest.raises(DiscretizationError, match="on link 4 "):
        rb.link_field(rb.Frame(cols, lat), lat)


def test_reference_orthogonal_at_one_site():
    # a zero overlap with the reference leaves the frame as it is, like the
    # per-site SVD, instead of producing NaN columns
    lat = rb.build_circle(8, "trivial")
    proj = np.tile(np.diag([1.0, 0.0]).astype(complex), (8, 1, 1))
    reference = np.zeros((8, 2, 1), dtype=complex)
    reference[:, 0, 0] = 1j
    reference[3] = [[0.0], [1.0]]
    new = rb.frame_from_projection(rb.ProjectionFamily(proj, 1, lat), reference)
    old = ref.frame_from_projection(proj, 1, lat, reference)
    assert np.all(np.isfinite(new.columns))
    assert np.max(np.abs(new.columns - old.columns)) <= TOL


@pytest.mark.parametrize("m", [1, 2])
def test_branch_cut_names_same_plaquette(m):
    lat = rb.build_torus2(6, 6, "trivial")
    u = np.tile(np.eye(m, dtype=complex), (lat.n_links, 1, 1))
    u[17, 0, 0] = -1.0  # every plaquette bounded by link 17 sits on the cut
    links = rb.LinkField(u, lat)
    same_failure(
        BranchCutError,
        lambda: rb.plaquette_curvature(links, lat),
        lambda: ref.plaquette_curvature(links, lat),
    )
    same_failure(
        BranchCutError,
        lambda: rb.local_connection_from_links(links),
        lambda: ref.local_connection_from_links(links),
    )


def test_rank_and_gauge_errors_name_same_site():
    lat = rb.build_circle(6, "trivial")
    proj = np.tile(np.diag([1.0, 1.0]).astype(complex), (6, 1, 1))
    proj[4] = np.diag([1.0, 0.0])
    bad = rb.ProjectionFamily(proj, 2, lat)
    same_failure(
        RankError,
        lambda: rb.frame_from_projection(bad),
        lambda: ref.frame_from_projection(proj, 2, lat),
    )
    links = rb.LinkField(np.ones((lat.n_links, 1, 1), dtype=complex), lat)
    g = np.ones((6, 1, 1), dtype=complex)
    g[3] = 2.0
    same_failure(
        DomainError,
        lambda: rb.gauge_transform(links, g),
        lambda: ref.gauge_transform(links, g),
    )
