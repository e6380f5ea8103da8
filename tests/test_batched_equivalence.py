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
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
import realbloch as rb
from conftest import assert_bundle_mirrors, mirrored_copies, mobius_two_band
from realbloch import berry, curvature, spectral
from realbloch._matrix import adjoint, expms, max_frob
from realbloch.classify import _BASE_TABLE, _j_consistency
from realbloch.models import _block_diag
from realbloch.errors import (
    BranchCutError,
    DiscretizationError,
    GapClosureError,
    ModelError,
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


@pytest.mark.parametrize("case", sorted(HAMILTONIAN_CASES))
def test_classify_reads_the_eigensolve_residual(case):
    # the eigensolve's pass computes the Hamiltonian residual on the blocks
    # and with the kernel of verify_hamiltonian_symmetry: the same bits
    h, j, lat, bands = HAMILTONIAN_CASES[case]()
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    s = rb.eigensolve_family(h, lat, bands, j)
    assert np.float64(s.hamiltonian_residual).tobytes() == np.float64(
        rep.hamiltonian_residual).tobytes()
    assert rb.eigensolve_family(h, lat, bands).hamiltonian_residual is None
    diagnostics = rb.classify_real_bundle(h, j, lat, bands).diagnostics
    assert diagnostics["hamiltonian_residual"] == rep.hamiltonian_residual
    assert diagnostics["unitary_residual"] == rep.unitary_residual


def twisted(h, j, lat, broken):
    """H'(x) = U(x) H(x) U(x)^dag and J'(x) = U(tau x) J(x) U(x)^T for a
    site-dependent unitary U: a symmetric family with a site-dependent J'.
    `broken` multiplies J' by a site-dependent unitary that breaks the
    symmetry."""
    n, d = h.dimension, lat.sites.shape[1]
    rng = np.random.default_rng(17)
    gens = rng.normal(size=(2 * d, n, n)) + 1j * rng.normal(size=(2 * d, n, n))
    gens = gens + adjoint(gens)
    site = {c.tobytes(): i for i, c in enumerate(lat.sites)}

    def u(c, g=gens[:d]):
        return expms(1j * np.tensordot(np.cos(c) + np.sin(2 * c), g, 1)[None])[0]

    def h_twisted(c):
        return u(c) @ h(c) @ u(c).conj().T

    def j_twisted(c):
        jc = u(lat.sites[lat.involution[site[c.tobytes()]]]) @ j(c) @ u(c).T
        return jc @ u(c, gens[d:]) if broken else jc

    return (
        rb.HamiltonianFamily(n, rb.pointwise(h_twisted), "twisted"),
        rb.SymmetryData(n, j.parity, rb.pointwise(j_twisted), "twisted-J"),
    )


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize(
    "case", ["mobius-two-band-circle", "sphere-sum-rank2", "oscillator-rank2"]
)
def test_projection_residual_from_columns_matches_projectors(case, broken):
    # sqrt(2) || (1 - P(tau x)) J conj(V) || equals || P(tau x) J - J conj(P) ||
    # for unitary J: ranks 1 and 2, J site-dependent, symmetric and broken
    h, j, lat, bands = HAMILTONIAN_CASES[case]()
    if case == "oscillator-rank2":
        lat = rb.build_torus2(6, 6, "eta1")
        h, j = rb.model_oscillator(rb.OscillatorParams(level=0, n_basis=24), lat)
    h, j = twisted(h, j, lat, broken)
    js = j(lat.sites)
    assert np.abs(adjoint(js) @ js - np.eye(j.dimension)).max() <= TOL  # unitary
    assert (_j_consistency(j, lat) > 0.1) if broken else _j_consistency(j, lat) <= TOL
    p = rb.select_projection(rb.eigensolve_family(h, lat, bands), bands)
    p_ref = ref.select_projection(ref.eigensolve_family(h, lat), bands)
    pres = rb.verify_projection_symmetry(p, j, lat)
    assert abs(pres - ref.verify_projection_symmetry(p_ref, j, lat)) <= TOL
    assert pres > 0.1 if broken else pres <= TOL


@pytest.mark.parametrize("case", sorted(PRODUCT_CASES))
def test_product_pipeline_matches_loops(case):
    spec, lat = PRODUCT_CASES[case]()
    u = rb.link_field_from_connection(spec, lat)
    u_ref = ref.link_field_from_connection(spec, lat)
    assert np.max(np.abs(u.u - u_ref.u)) <= TOL
    assert abs(_j_consistency(spec.j, lat) - ref.j_consistency(spec.j, lat)) <= TOL

    w = rb.SewingField(spec.j(lat.sites), spec.j.parity, 0.0)
    eq = rb.equivariance_residual(u, w, lat)
    assert abs(eq - ref.equivariance_residual(u_ref, w, lat)) <= TOL

    a = rb.local_connection_from_links(u, lat)
    a_ref = ref.local_connection_from_links(u_ref, lat)
    assert np.max(np.abs(a.a - a_ref.a)) <= TOL
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
    # the lattice's tree, walked site by site against pointer doubling
    h, _, lat, bands = HAMILTONIAN_CASES[case]()
    p = rb.select_projection(rb.eigensolve_family(h, lat), bands)
    frame = rb.frame_from_projection(p)
    got = rb.smooth_frame_gauge(frame, lat)
    want = ref.smooth_frame_gauge(frame, lat)
    assert np.max(np.abs(got.columns - want.columns)) <= TOL
    # every tree overlap is Hermitian positive semidefinite
    child = np.flatnonzero(lat.tree_links >= 0)
    overlap = adjoint(got.columns[child]) @ got.columns[lat.tree_parent[child]]
    assert max_frob(overlap - adjoint(overlap)) <= TOL
    assert np.linalg.eigvalsh(overlap).min() >= -TOL


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
    u = ref.gauge_transform(rb.LinkField(o.astype(complex)), g, lat)
    w = rb.SewingField(g.conj().swapaxes(1, 2) @ g.conj(), +1, 0.0)
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
    cells = [rb.LoopPath(cell) for cell in ref.corner_cycles(lat.plaquette_corners[:4])]
    probes = loops + [lp.reversed() for lp in loops] + cells
    for loop in probes + [ref.map_loop(lat, lp) for lp in probes]:
        got, want = rb.wilson_loop(u, loop, lat), ref.wilson_loop(u, loop, lat)
        assert got.hol.tobytes() == want.hol.tobytes()
        assert (got.loop, got.base) == (want.loop, want.base)

    recs = rb.fixed_loop_holonomies(u, lat, w)
    recs_ref = ref.fixed_loop_holonomies(u, lat, w)
    assert len(recs) == len(recs_ref) == len(loops) > 0
    for rec, rec_ref in zip(recs, recs_ref):
        assert rec.holonomy.hol.tobytes() == rec_ref.holonomy.hol.tobytes()
        assert rec.holonomy.loop == rec_ref.holonomy.loop
        assert rec.reality_residual == rec_ref.reality_residual < 1e-12
        assert rec.sign == rec_ref.sign


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gauge_transform_and_densities_match_loops(rng, m):
    lat = rb.build_sphere2(6, 8)  # triangles among quads: padded plaquette rows
    # small random anti-Hermitian steps keep every plaquette off the branch cut
    gen = 0.1 * random_matrices(rng, lat.n_links, m)
    steps = rb.LocalConnectionForm(gen - gen.conj().swapaxes(1, 2))
    links = rb.link_field_from_connection(steps, lat)
    g, _ = np.linalg.qr(random_matrices(rng, lat.n_sites, m))
    out = ref.gauge_transform(links, g, lat)
    curv = rb.plaquette_curvature(out, lat)
    curv_ref = ref.plaquette_curvature(out, lat)
    assert np.max(np.abs(curv.f - curv_ref.f)) <= TOL
    for k in range(1, m + 1):
        dens = rb.chern_weil_density(curv, k)
        assert np.max(np.abs(dens - ref.chern_weil_density(curv_ref, k))) <= TOL
    if m == 1:  # the trace of a 1 x 1 flux is its eigenvalue: curvature.csv's bits
        dens_ref = ref.chern_weil_density(curv, 1)
        assert rb.chern_weil_density(curv, 1).tobytes() == dens_ref.tobytes()


# -- the solid-angle degree against the plaquette-loop Chern number ------------

# the degree-k sphere lattices of ROADMAP item 1's table; the first five alias:
# their Chern number is not k, and the fan-triangle degree of the d-vector
# samples aliases to the same integer, so it certifies nothing there
DEGREE_CASES = [
    (5, 4, 6), (5, 6, 8), (7, 8, 12), (15, 9, 12), (15, 12, 16),
    (15, 24, 32), (1, 4, 6), (2, 6, 8), (3, 8, 12), (2, 96, 128),
]


@pytest.mark.parametrize("case", DEGREE_CASES, ids=lambda c: "k%d-%dx%d" % c)
def test_degree_oracle_matches_plaquette_loop(case):
    k, n_theta, n_phi = case
    lat = rb.build_sphere2(n_theta, n_phi)
    want = ref.degree_sum(k, lat)
    assert abs(want - round(want)) <= 1e-6
    h, j = rb.model_degree_k_sphere(k)
    assert rb.classify_real_bundle(h, j, lat, [0]).free == [round(want)]
    reverse = lat.with_reversed_orientation()
    assert rb.classify_real_bundle(h, j, reverse, [0]).free == [-round(want)]
    assert (round(want) == k) == (case not in DEGREE_CASES[:5])


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


def exact_eigenvalues():
    # 1 x 1 sectors 0 (so ||T|| = 0) and -3, and the 2 x 2 tridiagonal sector
    # g [[1, e^{it}], [e^{-it}, 1]], whose eigenvalue 0 is exact: the last
    # pivot of T - 0 is exactly 0
    def evaluate(c):
        t = c[:, 0]
        g = 1.0 + 0.5 * np.cos(t)
        h = np.zeros((len(t), 4, 4), dtype=complex)
        h[:, 1, 1] = -3.0
        h[:, 2, 2] = h[:, 3, 3] = g
        h[:, 2, 3] = g * np.exp(1j * t)
        h[:, 3, 2] = g * np.exp(-1j * t)
        return h

    h = rb.HamiltonianFamily(4, evaluate, "exact")
    return h, rb.build_circle(16, "trivial"), [[0], [1, 2], [3], [0, 1, 2]]


def degenerate_pieces():
    # the even path 0-2-4-6 has entry (2, 4) = 0.4 sin t, zero for t >= pi:
    # there it splits into two equal 2 x 2 pieces, whose eigenvalue pairs
    # are exactly degenerate, or split by 1e-13 on every other site.  Where
    # 0.4 sin t is small the pairs split by less than 1e-3 ||T||, elsewhere
    # by more
    def evaluate(c):
        t = c[:, 0]
        h = np.zeros((len(t), 8, 8), dtype=complex)
        even, odd = np.arange(0, 8, 2), np.arange(1, 8, 2)
        h[:, even, even] = np.stack([-2 + 0.5 * np.cos(t), 1 + 0.3 * np.sin(t)] * 2, 1)
        h[:, 4, 4] += np.where(np.arange(len(t)) % 2, 1e-13, 0.0)
        h[:, 0, 2] = h[:, 4, 6] = 0.7 * np.exp(1j * t)
        h[:, 2, 4] = 0.4 * np.maximum(np.sin(t), 0.0)
        h[:, odd, odd] = 50.0 + np.arange(4)
        h[:, odd[:-1], odd[1:]] = 1.0
        return h + np.triu(h, 1).conj().swapaxes(1, 2)

    h = rb.HamiltonianFamily(8, evaluate, "pieces")
    return h, rb.build_circle(48, "trivial"), [[0, 1], [2, 3], [0, 1, 2, 3], [4]]


SECTOR_CASES = {
    "oscillator-N40": oscillator_sectors,
    "dense-4-beside-2": dense_beside_pair,
    "coupled-in-some-blocks": coupled_in_some_blocks,
    "sub-diagonal-zero-at-some-sites": sub_diagonal_zero_at_some_sites,
    "exact-eigenvalues": exact_eigenvalues,
    "degenerate-pieces": degenerate_pieces,
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


def real_on_reflection(h, lat):
    """A circle case made Real with J = 1 on the reflection circle:
    (H(t) + conj(H(2 pi - t))) / 2, symmetric up to the roundoff of the
    angles; other lattices keep their (Real) family."""
    if lat.base_tag != "circle-trivial":
        return h, lat
    half = rb.HamiltonianFamily(
        h.dimension, lambda c: 0.5 * (h(c) + h(-c % (2 * np.pi)).conj()), h.name
    )
    return half, rb.build_circle(lat.n_sites, "reflection")


@pytest.mark.parametrize("case", sorted(SECTOR_CASES))
def test_mirrored_eigensolve_matches_full_solve(case):
    # given J, blocks at roundoff solve one site per orbit and give the
    # other J conj(V); without J every site is solved
    h, lat, groups = SECTOR_CASES[case]()
    h, lat = real_on_reflection(h, lat)
    j = rb.SymmetryData.identity(h.dimension)
    s, full = rb.eigensolve_family(h, lat, None, j), rb.eigensolve_family(h, lat)
    tau = lat.involution
    image = np.flatnonzero(np.arange(lat.n_sites) > tau)
    mirrored = [t for t in image if np.array_equal(
        s.eigenvectors[t], s.eigenvectors[tau[t]].conj())]
    assert len(mirrored) == len(image)
    stack = h(lat.sites)
    scale = TOL * np.linalg.norm(stack, axis=(1, 2))
    assert np.all(np.abs(s.eigenvalues - full.eigenvalues) <= scale[:, None])
    residual = stack @ s.eigenvectors - s.eigenvectors * s.eigenvalues[:, None, :]
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= scale)
    for bands in groups:
        p, p_full = (rb.select_projection(x, bands).projectors for x in (s, full))
        assert np.max(np.abs(p - p_full)) <= TOL, bands
        bundle = rb.RealBundle(h, j, lat, bands)
        assert bundle.mirrored[image].all()
        assert_mirror_matches_full(bundle)


def assert_mirror_matches_full(bundle):
    """The layers a bundle writes from tau-images (see assert_bundle_mirrors)
    against the same layers computed at every site, link and plaquette of
    its own frame (the projection residual by the loop reference), to
    TOL."""
    lat, f, j = bundle.lat, bundle.frame, bundle.j
    try:
        u = rb.link_field(f, lat)
    except DiscretizationError as exc:  # eigenvectors that jump inside the group
        with pytest.raises(DiscretizationError) as got:
            bundle.links
        assert str(got.value) == str(exc)
        return
    assert assert_bundle_mirrors(bundle) > 0
    w = rb.sewing_matrix(f, j, lat)
    assert max_frob(bundle.links.u - u.u) <= TOL
    assert max_frob(bundle.sewing.w - w.w) <= TOL
    assert abs(w.unitarity_residual - bundle.sewing.unitarity_residual) <= TOL
    pres = ref.verify_projection_symmetry(bundle.projection.projectors, j, lat)
    assert abs(pres - bundle.projection_residual) <= TOL
    eq = rb.equivariance_residual(u, w, lat)
    assert abs(eq - bundle.equivariance) <= TOL
    if lat.dim == 2:
        assert max_frob(bundle.curvature.f - rb.plaquette_curvature(u, lat).f) <= TOL


@pytest.mark.parametrize("case", sorted(SECTOR_CASES))
def test_eigensolve_keeps_the_selected_columns_bitwise(case):
    h, lat, groups = SECTOR_CASES[case]()
    full = rb.eigensolve_family(h, lat)
    assert full.bands == tuple(range(h.dimension))
    for bands in groups:
        s = rb.eigensolve_family(h, lat, bands)
        assert s.bands == tuple(bands)
        assert s.eigenvectors.shape == (lat.n_sites, h.dimension, len(bands))
        assert s.eigenvalues.tobytes() == full.eigenvalues.tobytes()
        assert s.eigenvectors.tobytes() == full.eigenvectors[:, :, bands].tobytes()
        columns = rb.select_projection(s, bands).columns
        assert columns.tobytes() == rb.select_projection(full, bands).columns.tobytes()


def test_a_dense_sector_takes_the_whole_block_eigh():
    # a block splits only when every sector is tridiagonal: beside a dense
    # sector, the whole block is one eigh, bit for bit
    h, lat, _ = dense_beside_pair()
    s = rb.eigensolve_family(h, lat)
    w, v = np.linalg.eigh(h(lat.sites))
    assert s.eigenvalues.tobytes() == w.tobytes()
    assert s.eigenvectors.tobytes() == v.tobytes()


@pytest.mark.parametrize("case", ["oscillator-N40", "degenerate-pieces"])
def test_dense_fallback_gets_only_failed_rows(monkeypatch, case):
    # the oscillator's rows all converge; the degenerate pieces' clusters
    # take the fallback.  Every block of these cases splits into sectors,
    # so each eighs call is a fallback of _kept_columns
    sizes = []
    eighs = spectral.eighs

    def counted(t):
        sizes.append(len(t))
        return eighs(t)

    monkeypatch.setattr(spectral, "eighs", counted)
    h, lat, _ = SECTOR_CASES[case]()
    rb.eigensolve_family(h, lat)
    assert all(sizes)  # never an empty row set
    assert bool(sizes) == (case == "degenerate-pieces")


def test_patterns_of_the_same_sectors_share_one_solve(monkeypatch):
    # diagonal entry (1, 1) vanishes for t >= pi, so the first two of the
    # four blocks have one nonzero pattern and the last two another, with
    # the same two path sectors: their sites are solved together, by one
    # _sector_eigh call, as a dense eigh would solve them
    calls = []
    sector_eigh = spectral._sector_eigh

    def counted(rows, *args):
        calls.append(rows.count)
        return sector_eigh(rows, *args)

    monkeypatch.setattr(spectral, "_sector_eigh", counted)
    rng = np.random.default_rng(44)
    shift = np.where(np.arange(32) % 2, 0.0, -50.0)
    gate = (1, 1, lambda t: np.where(t < np.pi, 1.0, 0.0))
    h = trig_family(rng, path_pattern(32), shift, [gate])
    lat = rb.build_circle(64, "trivial")
    patterns = {(h(lat.sites[sites]) != 0).any(axis=0).tobytes()
                for sites, _ in spectral.orbit_blocks(lat, 32 * 32)}
    assert len(patterns) == 2
    s = rb.eigensolve_family(h, lat)
    assert calls == [lat.n_sites]
    stack = h(lat.sites)
    scale = TOL * np.linalg.norm(stack, axis=(1, 2))
    assert np.all(np.abs(s.eigenvalues - np.linalg.eigvalsh(stack)) <= scale[:, None])
    residual = stack @ s.eigenvectors - s.eigenvectors * s.eigenvalues[:, None, :]
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= scale)


def test_kept_rows_are_solved_in_bounded_chunks(monkeypatch):
    # every band of the oscillator's two 20 x 20 sectors: 1440 kept rows
    # over the 36 sites, solved after the block loop in chunks of at most
    # BLOCK_ENTRIES // 20 rows, so at least two, each one _kept_columns
    # call with one _tridiagonal_eigh call
    chunks, calls = [], []
    kept_columns, tridiagonal_eigh = spectral._kept_columns, spectral._tridiagonal_eigh

    def chunk(diag, off, at, lam, *rest):
        chunks.append(len(lam))
        return kept_columns(diag, off, at, lam, *rest)

    def solve(*args):
        calls.append(len(args[2]))
        return tridiagonal_eigh(*args)

    monkeypatch.setattr(spectral, "_kept_columns", chunk)
    monkeypatch.setattr(spectral, "_tridiagonal_eigh", solve)
    h, lat, _ = SECTOR_CASES["oscillator-N40"]()
    rb.eigensolve_family(h, lat)
    assert calls == chunks
    assert len(chunks) >= 2 and sum(chunks) == lat.n_sites * 40
    assert max(chunks) <= spectral.BLOCK_ENTRIES // 20


def random_path(rng, k, scale, split):
    """scale times a random complex Hermitian tridiagonal k x k matrix.  For
    k >= 4 and a `split`, its second half repeats its first and couples to
    it by split * scale, so its eigenvalues come in pairs that far apart."""
    diag = rng.normal(size=k)
    sub = rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1)
    if k >= 4 and split is not None:
        p = k // 2
        diag[p : 2 * p] = diag[:p]
        sub[p : 2 * p - 1] = sub[: p - 1]
        sub[p - 1] = split
    return scale * (np.diag(diag) + np.diag(sub, -1) + np.diag(sub.conj(), 1))


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(2, 48),
    seed=st.integers(0, 2**32 - 1),
    powers=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
    split=st.sampled_from([None, 0.0, 1e-13, 1e-9]),
)
def test_interleaved_path_sectors_match_dense(dim, seed, powers, split):
    # the even and the odd indices each form a path sector (as in
    # path_pattern) of 1 to 24 indices, scaled 1e-6 to 1e6, at 4 sites
    rng = np.random.default_rng(seed)
    n = 4
    stacks = np.zeros((n, dim, dim), dtype=complex)
    for site in range(n):
        for first, power in zip((0, 1), powers):
            k = len(range(first, dim, 2))
            block = random_path(rng, k, 10.0**power, split)
            stacks[site, first::2, first::2] = block
    lat = rb.build_circle(n, "trivial")
    h = rb.HamiltonianFamily(
        dim, lambda c: stacks[np.rint(c[:, 0] * n / (2 * np.pi)).astype(int) % n]
    )
    s = rb.eigensolve_family(h, lat)
    w, v = np.linalg.eigh(stacks)
    norm = np.abs(w).max(axis=1)[:, None]  # ||H||
    assert np.all(np.abs(s.eigenvalues - w) <= TOL * norm)
    residual = stacks @ s.eigenvectors - s.eigenvectors * s.eigenvalues[:, None, :]
    assert np.all(np.linalg.norm(residual, axis=1) <= TOL * norm)
    # projectors onto the groups of bands 1e-2 ||H|| apart from the rest
    for site in range(n):
        cuts = np.flatnonzero(np.diff(w[site]) > 1e-2 * norm[site]) + 1
        for group in np.split(np.arange(dim), cuts):
            mine, theirs = s.eigenvectors[site][:, group], v[site][:, group]
            p, q = mine @ mine.conj().T, theirs @ theirs.conj().T
            assert np.abs(p - q).max() <= TOL, (site, group)


def test_bundle_keeps_only_its_bands():
    lat = rb.build_torus2(6, 6, "eta1")
    h, j = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
    bundle = rb.RealBundle(h, j, lat, [0, 1])
    assert bundle.spectra.eigenvectors.shape == (lat.n_sites, 40, 2)
    assert bundle.projection.columns.shape == (lat.n_sites, 40, 2)


def test_band_selection_errors_of_the_kept_eigensolve():
    lat = rb.build_circle(4, "trivial")
    h = rb.HamiltonianFamily(3, spectral.constant(np.diag([-1.0, 0.0, 1.0])))
    for bands in ([3], [0.5]):
        with pytest.raises(ValueError) as want:
            spectral.band_selection(bands, 3)
        with pytest.raises(ValueError) as got:
            rb.eigensolve_family(h, lat, bands)
        assert str(got.value) == str(want.value)
    s = rb.eigensolve_family(h, lat, [1])
    assert rb.gap_margin(s, [2]) == 1.0  # every eigenvalue is kept
    with pytest.raises(ValueError, match=r"bands \[2\] not kept by the eigensolve"):
        rb.select_projection(s, [1, 2])


# -- J = 1 and constant J against the same J sampled per point -----------------


def per_point(j):
    """The constant J of `j` as a site-dependent family (no matrix)."""
    return rb.SymmetryData(j.dimension, j.parity, rb.pointwise(lambda c: j.matrix))


def rotated_sphere():
    # H' = U H U^dag has the time reversal U K U^dag = (U U^T) K: a constant
    # J' = U U^T that is not the identity
    h, _ = rb.model_degree_k_sphere(2)
    u, _ = np.linalg.qr(random_matrices(np.random.default_rng(44), 1, 2)[0])
    rotated = rb.HamiltonianFamily(2, lambda c: u @ h(c) @ u.conj().T, "rotated")
    return rotated, rb.SymmetryData.constant(u @ u.T), rb.build_sphere2(10, 16), [0]


def oscillator_eta1(n, bands):
    def build():
        lat = rb.build_torus2(n, n, "eta1")
        h, j = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
        return h, j, lat, bands

    return build


CONSTANT_J_CASES = {
    "sphere-k+2": sphere_case(2),
    "oscillator-6x6-rank1": oscillator_eta1(6, [1]),
    "oscillator-6x6-rank2": oscillator_eta1(6, [0, 1]),
    # J = 1 checks the (n, 40, 2) columns in three blocks of 204 sites, the
    # per-point J its (n, 40, 40) stack in blocks of 10: two partitions
    "oscillator-24x24-rank2": oscillator_eta1(24, [0, 1]),
    "sphere-sum-rank2": HAMILTONIAN_CASES["sphere-sum-rank2"],
    "sigma-x-circle": HAMILTONIAN_CASES["mobius-two-band-circle"],
    "rotated-sphere": rotated_sphere,
}


def assert_same_symmetry_layers(h, j, j_ref, lat, bands):
    """Every symmetry residual with the same bits; the sewing matrices equal
    entry by entry (an exact zero may differ in its sign: I @ A and A do)."""
    p = rb.select_projection(rb.eigensolve_family(h, lat, bands), bands)
    f = rb.frame_from_projection(p)
    outputs = []
    for jj in (j, j_ref):
        rep = rb.verify_hamiltonian_symmetry(h, jj, lat)
        w = rb.sewing_matrix(f, jj, lat)
        residuals = [
            rep.hamiltonian_residual,
            rep.unitary_residual,
            _j_consistency(jj, lat),
            rb.verify_projection_symmetry(p, jj, lat),
            w.unitarity_residual,
        ]
        outputs.append(([np.float64(x).tobytes() for x in residuals], w.w))
    (res, w), (res_ref, w_ref) = outputs
    assert res == res_ref
    assert np.array_equal(w, w_ref)


@pytest.mark.parametrize("case", sorted(CONSTANT_J_CASES))
def test_constant_j_layers_match_per_point_j_bitwise(monkeypatch, case):
    # a per-point J is never the identity, so its bundle computes every
    # site, link and plaquette; the constant J's bundle does too once its
    # mirror is off, and then the two agree bit for bit
    h, j, lat, bands = CONSTANT_J_CASES[case]()
    assert j.matrix is not None
    assert_same_symmetry_layers(h, j, per_point(j), lat, bands)
    want = rb.classify_real_bundle(h, per_point(j), lat, bands).to_json_dict()
    mirrored = rb.classify_real_bundle(h, j, lat, bands).to_json_dict()
    monkeypatch.setattr(rb.RealBundle, "mirrored", None)
    assert rb.classify_real_bundle(h, j, lat, bands).to_json_dict() == want
    # with the mirror (J = 1), the numbers move at roundoff only
    got, expect = mirrored.pop("diagnostics"), want.pop("diagnostics")
    assert mirrored == want and sorted(got) == sorted(expect)
    for key, value in got.items():
        assert np.allclose(value, expect[key], rtol=0, atol=TOL), key


def test_whitney_sums_keep_a_constant_j():
    pairs = [rb.model_degree_k_sphere(1), rb.model_degree_k_sphere(-2)]
    h, j = rb.direct_sum_hamiltonians(*pairs)
    assert np.array_equal(j.matrix, np.eye(4))
    (_, j1), (_, j2) = pairs
    sum_j = rb.SymmetryData(4, +1, lambda c: _block_diag(j1(c), j2(c)), "sum-J")
    lat = rb.build_sphere2(10, 16)
    assert_same_symmetry_layers(h, j, sum_j, lat, [0, 1])
    spec = rb.direct_sum_specs(
        rb.model_trivial_line("circle-antipodal", 1),
        rb.model_trivial_line("circle-antipodal", 1),
    )
    assert np.array_equal(spec.j.matrix, np.eye(2))
    mobius = rb.direct_sum_specs(rb.model_mobius_circle(), rb.model_mobius_circle())
    assert mobius.j.matrix is None  # the Mobius J depends on the site
    lat = rb.build_circle(12, "antipodal")
    assert _j_consistency(spec.j, lat) == _j_consistency(per_point(spec.j), lat)


def test_trivial_line_identity_j_matches_per_point():
    spec, lat = PRODUCT_CASES["trivial-line-xi-torus"]()
    assert np.array_equal(spec.j.matrix, np.eye(1))
    assert spec.j.factor(lat.sites) is None  # J = 1: nothing to evaluate
    assert per_point(spec.j).factor(lat.sites).shape == (lat.n_sites, 1, 1)
    assert _j_consistency(spec.j, lat) == _j_consistency(per_point(spec.j), lat)
    result = rb.classify_real_bundle(spec, lat=lat).to_json_dict()
    spec.j = per_point(spec.j)
    assert result == rb.classify_real_bundle(spec, lat=lat).to_json_dict()


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


# -- the mirror: tau-images written from their representatives ---------------

# the trivial torus is left out: every site is fixed, so its Real frames are
# real and a plaquette holonomy in O(m) may sit on the cut at -1
SMALL_LATTICES = sorted(
    k for k, v in SHIPPED_LATTICES.items() if v[1] <= 12 and k != "torus-trivial"
)


def real_frame(lat, dim, m, rng):
    """Orthonormal (n, dim, m) columns, random at the lower site of each
    orbit, their conjugate at the higher and real at a fixed site: Real bit
    for bit at every site."""
    z = rng.normal(size=(lat.n_sites, dim, m, 2)) @ [1.0, 1j]
    fixed = lat.fixed_sites
    z[fixed] = z[fixed].real
    cols, _ = np.linalg.qr(z)
    tau = lat.involution
    high = np.flatnonzero(tau < np.arange(lat.n_sites))
    cols[high] = cols[tau[high]].conj()
    return cols


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", SMALL_LATTICES)
def test_mirror_writes_what_the_full_path_computes(case, m):
    # every layer with the mirror on against the same layer computed
    # everywhere, on one Real frame: links, plaquette fluxes (mirrored at
    # rank one), sewing matrices and the residuals agree to TOL (the
    # projection residual, which finds the mirror itself, against the loop
    # reference)
    builder, *args = SHIPPED_LATTICES[case]
    lat = builder(*args)
    f = rb.Frame(real_frame(lat, 3, m, np.random.default_rng(m)))
    j, mirrored = rb.SymmetryData.identity(3), np.ones(lat.n_sites, bool)
    u, u_full = rb.link_field(f, lat, mirrored), rb.link_field(f, lat)
    assert max_frob(u.u - u_full.u) <= TOL
    w = rb.sewing_matrix(f, j, lat, mirrored=mirrored)
    w_full = rb.sewing_matrix(f, j, lat)
    assert max_frob(w.w - w_full.w) <= TOL
    assert abs(w_full.unitarity_residual - w.unitarity_residual) <= TOL
    p = rb.ProjectionFamily(f.columns, tuple(range(m)))
    pres = rb.verify_projection_symmetry(p, j, lat)
    assert abs(ref.verify_projection_symmetry(p.projectors, j, lat) - pres) <= TOL
    eq = rb.equivariance_residual(u, w, lat, mirrored)
    assert abs(eq - rb.equivariance_residual(u_full, w_full, lat)) <= TOL
    copies = mirrored_copies(lat.link_image, np.ones(lat.n_links, bool))
    moved = np.count_nonzero(lat.link_image != np.arange(lat.n_links))
    assert copies.size == moved // 2
    curv = rb.plaquette_curvature(u, lat, mirrored)  # a circle's is empty
    assert curv.f.shape == (lat.n_plaquettes, m, m)
    assert max_frob(curv.f - rb.plaquette_curvature(u_full, lat).f) <= TOL


@pytest.mark.parametrize("case", ["sphere-k+2", "oscillator-rank2"])
def test_a_frame_that_is_not_real_takes_the_full_path(monkeypatch, case):
    # a random phase per site breaks the frame's Realness: every link and
    # plaquette is computed, and the invariants are those of the default rule
    h, j, lat, bands = HAMILTONIAN_CASES[case]()
    angles = 2.0 * np.pi * np.random.default_rng(3).random((lat.n_sites, 1, 1))
    phases = np.exp(1j * angles)

    def phased(p):
        return rb.Frame(rb.frame_from_projection(p).columns * phases)

    sizes = []  # rows of the overlap polar and of the plaquette logs
    kernels = [(berry, "polar_unitaries"), (curvature, "principal_log_unitaries")]
    for mod, name in kernels:
        def counted(a, *args, kernel=getattr(mod, name), **kwargs):
            sizes.append(len(a))
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    bundle = rb.RealBundle(h, j, lat, bands, frame_rule=phased)
    got = bundle.classify()
    assert not bundle.mirrored.any()
    assert sizes == [lat.n_links, lat.n_plaquettes]
    sizes.clear()
    want = rb.classify_real_bundle(h, j, lat, bands)
    assert sizes[0] < lat.n_links
    for key in ("verdict", "free", "torsion"):
        assert getattr(got, key) == getattr(want, key)
    value, value_want = (r.diagnostics["chern_value"] for r in (got, want))
    assert abs(value - value_want) <= TOL


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
    for new in (
        lambda: rb.eigensolve_family(h, lat),
        lambda: rb.classify_real_bundle(h, rb.SymmetryData.identity(dim), lat, [0]),
    ):
        same_failure(ModelError, new, lambda: ref.eigensolve_family(h, lat))


@pytest.mark.parametrize("dim", [2, 64])
@pytest.mark.parametrize("offenders", [[9, 37], [20], [3, 30, 31]])
def test_non_hermitian_names_lowest_site_over_orbit_blocks(dim, offenders):
    # the eigensolve walks involution-closed blocks: on the reflection
    # circle with N = 64 the first holds sites 0-3 and their images 37-39,
    # so site 37 is met before site 9 (third block); the error, through the
    # library eigensolve and through classify, names the lowest offender
    lat = rb.build_circle(40, "reflection")
    base = np.diag(np.arange(dim, dtype=complex))
    bad = lat.sites[offenders, 0]

    def evaluate(c):
        mat = base.copy()
        mat[0, 1] = mat[1, 0] = 0.5
        if np.abs(bad - c[0]).min() < 1e-12:
            mat[1, 0] += 1.0
        return mat

    h = rb.HamiltonianFamily(dim, rb.pointwise(evaluate), "skew")
    for new in (
        lambda: rb.eigensolve_family(h, lat),
        lambda: rb.classify_real_bundle(h, rb.SymmetryData.identity(dim), lat, [0]),
    ):
        err = same_failure(ModelError, new, lambda: ref.eigensolve_family(h, lat))
        assert str(err).endswith(f"site {min(offenders)}")


def test_singular_overlap_names_same_link():
    lat = rb.build_circle(8, "trivial")
    cols = np.zeros((8, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    cols[5] = [[0.0], [1.0]]  # orthogonal to both neighbors: links 4 and 5
    f = rb.Frame(cols)
    same_failure(
        DiscretizationError,
        lambda: rb.link_field(f, lat),
        lambda: ref.link_field(f, lat),
    )


def test_mirror_names_the_lowest_singular_link():
    # a singular overlap planted on the image link of an orbit, with the
    # frame still Real: the error names the orbit's lower link, as the full
    # path and the loop reference do.  Every site holds e0 but the ends of
    # the orbit's two links: (e0 + e1) / sqrt 2 at one end, (e0 - e1) / sqrt 2
    # at the other, so only these two links are singular
    lat = rb.build_torus2(8, 12, "eta")
    tau, img, tail, head = lat.involution, lat.link_image, lat.link_tail, lat.link_head
    for lk in np.flatnonzero(img < np.arange(lat.n_links)):
        cols = np.zeros((lat.n_sites, 3, 1))
        cols[:, 0] = 1.0
        cols[[tail[lk], tau[tail[lk]]]] = [[1.0], [1.0], [0.0]]
        cols[[head[lk], tau[head[lk]]]] = [[1.0], [-1.0], [0.0]]
        singular = np.sum(cols[tail] * cols[head], axis=(1, 2)) == 0
        if set(np.flatnonzero(singular)) == {lk, img[lk]}:
            break
    else:
        pytest.fail("no link to plant on")
    f = rb.Frame(cols / np.linalg.norm(cols, axis=1, keepdims=True) + 0j)
    mirrored = np.ones(lat.n_sites, bool)
    err = same_failure(
        DiscretizationError,
        lambda: rb.link_field(f, lat, mirrored),
        lambda: ref.link_field(f, lat),
    )
    assert f"on link {img[lk]} " in str(err)
    same_failure(
        DiscretizationError,
        lambda: rb.link_field(f, lat, mirrored),
        lambda: rb.link_field(f, lat),
    )


@pytest.mark.parametrize("m", [1, 2])
def test_mirror_names_the_lowest_plaquette_on_the_cut(m):
    # a link at -1 on the image link of an orbit and on its representative
    # (a Real link field): the error names the lowest plaquette on the cut,
    # as the full path and the loop reference do (rank 2 computes every
    # plaquette)
    lat = rb.build_torus2(10, 10, "xi")
    u = np.tile(np.eye(m, dtype=complex), (lat.n_links, 1, 1))
    lk = np.flatnonzero(lat.link_image < np.arange(lat.n_links))[7]
    u[[lk, lat.link_image[lk]], 0, 0] = -1.0
    links, mirrored = rb.LinkField(u), np.ones(lat.n_sites, bool)
    err = same_failure(
        BranchCutError,
        lambda: rb.plaquette_curvature(links, lat, mirrored),
        lambda: ref.plaquette_curvature(links, lat),
    )
    on_cut = np.isin(lat.plaquette_links, [lk, lat.link_image[lk]]).any(axis=1)
    assert str(err).startswith(f"plaquette {np.argmax(on_cut)}:")
    same_failure(
        BranchCutError,
        lambda: rb.plaquette_curvature(links, lat, mirrored),
        lambda: rb.plaquette_curvature(links, lat),
    )


def test_non_finite_overlap_raises():
    # a NaN frame must not pass the singular-overlap check unnoticed
    lat = rb.build_circle(8, "trivial")
    cols = np.zeros((8, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    cols[5, 0, 0] = np.nan
    with pytest.raises(DiscretizationError, match="on link 4 "):
        rb.link_field(rb.Frame(cols), lat)


def test_reference_orthogonal_at_one_site():
    # a zero overlap with the reference leaves the frame as it is, like the
    # per-site SVD, instead of producing NaN columns
    lat = rb.build_circle(8, "trivial")
    cols = np.zeros((8, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    proj = np.tile(np.diag([1.0, 0.0]).astype(complex), (8, 1, 1))
    reference = np.zeros((8, 2, 1), dtype=complex)
    reference[:, 0, 0] = 1j
    reference[3] = [[0.0], [1.0]]
    new = rb.frame_from_projection(rb.ProjectionFamily(cols, (0,)), reference)
    old = ref.frame_from_projection(proj, 1, lat, reference)
    assert np.all(np.isfinite(new.columns))
    assert np.max(np.abs(new.columns - old.columns)) <= TOL


@pytest.mark.parametrize("m", [1, 2])
def test_branch_cut_names_same_plaquette(m):
    lat = rb.build_torus2(6, 6, "trivial")
    u = np.tile(np.eye(m, dtype=complex), (lat.n_links, 1, 1))
    u[17, 0, 0] = -1.0  # every plaquette bounded by link 17 sits on the cut
    links = rb.LinkField(u)
    same_failure(
        BranchCutError,
        lambda: rb.plaquette_curvature(links, lat),
        lambda: ref.plaquette_curvature(links, lat),
    )
    same_failure(
        BranchCutError,
        lambda: rb.local_connection_from_links(links, lat),
        lambda: ref.local_connection_from_links(links, lat),
    )
