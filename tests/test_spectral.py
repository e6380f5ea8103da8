import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
from conftest import constant_diag
from realbloch import spectral
from realbloch._matrix import adjoint, max_frob
from realbloch.errors import (
    DomainError,
    GapClosureError,
    ModelError,
    RankError,
    SymmetryViolationError,
)


def test_constant_family_eigensolve():
    lat = rb.build_circle(8, "trivial")
    h = constant_diag([-1.0, 1.0])
    s = rb.eigensolve_family(h, lat)
    assert np.allclose(s.eigenvalues, [[-1.0, 1.0]] * 8)
    p = rb.select_projection(s, {0})
    assert np.allclose(p.projectors, np.diag([1.0, 0.0]))
    assert rb.gap_margin(s, {0}) == pytest.approx(2.0)


def test_pauli_model_spectrum_and_projector():
    # H = d . sigma with |d| = 1 has eigenvalues -1, +1 and lower-band
    # projector (1 - d.sigma)/2
    lat = rb.build_sphere2(4, 6)
    h, _ = rb.model_degree_k_sphere(1)
    s = rb.eigensolve_family(h, lat)
    assert np.allclose(s.eigenvalues[:, 0], -1.0)
    assert np.allclose(s.eigenvalues[:, 1], 1.0)
    p = rb.select_projection(s, {0})
    for site in range(lat.n_sites):
        d_sigma = h(lat.sites[site])
        expect = 0.5 * (np.eye(2) - d_sigma)
        assert np.allclose(p.projectors[site], expect, atol=1e-12)


def test_non_hermitian_rejected():
    lat = rb.build_circle(4, "trivial")
    h = rb.HamiltonianFamily(
        2, rb.pointwise(lambda c: np.array([[0, 1], [0, 0]], dtype=complex))
    )
    with pytest.raises(ModelError):
        rb.eigensolve_family(h, lat)


def test_degenerate_selection_fails_with_site():
    lat = rb.build_circle(4, "trivial")
    s = rb.eigensolve_family(constant_diag([0.0, 0.0]), lat)
    assert rb.gap_margin(s, {0}) == 0.0
    with pytest.raises(GapClosureError) as err:
        rb.select_projection(s, {0})
    assert err.value.site == 0


def test_gap_margin_positive_iff_selection_succeeds():
    lat = rb.build_circle(4, "trivial")
    for entries in ([-1.0, 1.0], [0.0, 1e-9], [0.0, 1e-7]):
        s = rb.eigensolve_family(constant_diag(entries), lat)
        margin = rb.gap_margin(s, {0})
        if margin > 1e-8:
            rb.select_projection(s, {0})
        else:
            with pytest.raises(GapClosureError):
                rb.select_projection(s, {0})


@pytest.mark.parametrize(
    "bands, message",
    [
        ([3], r"band indices \[3\] outside 0..2"),
        ({0, -1}, r"band indices \[-1, 0\] outside 0..2"),
        ([1.0], r"band indices \[1.0\] are not integers"),
        (["0"], r"band indices \['0'\] are not integers"),
    ],
)
def test_band_indices_validated_by_gap_and_selection(bands, message):
    lat = rb.build_circle(4, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 0.0, 1.0]), lat)
    for layer in (rb.gap_margin, rb.select_projection):
        with pytest.raises(ValueError, match=message):
            layer(s, bands)
    assert rb.gap_margin(s, np.array([1, 0])) == pytest.approx(1.0)


def test_projector_invariant_under_in_group_mixing():
    # degeneracy inside the selected group is allowed and the projector is
    # independent of how the eigensolver spans it
    lat = rb.build_circle(4, "trivial")
    s = rb.eigensolve_family(constant_diag([0.0, 0.0, 5.0]), lat)
    p = rb.select_projection(s, {0, 1})
    assert np.allclose(p.projectors, np.diag([1.0, 1.0, 0.0]))


def test_frame_properties():
    lat = rb.build_sphere2(4, 6)
    h, _ = rb.model_degree_k_sphere(1)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    f = rb.frame_from_projection(p)
    for site in range(lat.n_sites):
        cols = f.columns[site]
        assert np.allclose(cols.conj().T @ cols, np.eye(1), atol=1e-10)
        assert np.allclose(p.projectors[site] @ cols, cols, atol=1e-10)


def test_frame_standard_basis_case():
    lat = rb.build_circle(4, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    f = rb.frame_from_projection(rb.select_projection(s, {0}))
    assert np.allclose(f.columns, np.array([[1.0], [0.0]], dtype=complex))


def test_frame_rank_error():
    lat = rb.build_circle(4, "trivial")
    bad = rb.ProjectionFamily(
        np.tile(np.diag([1.0, 0.0]).astype(complex), (4, 1, 1)), 2, lat
    )
    with pytest.raises(RankError):
        rb.frame_from_projection(bad)


@pytest.mark.parametrize("entry", [1.0, np.nan])
def test_frame_of_a_non_hermitian_projector_fails(entry):
    # the oblique idempotent [[1, 1], [0, 0]] has rank 1, but eigh reads only
    # its lower triangle and took it for diag(1, 0); a NaN is caught likewise
    lat = rb.build_circle(4, "trivial")
    proj = np.tile(np.diag([1.0, 0.0]).astype(complex), (4, 1, 1))
    proj[2, 0, 1] = entry
    with pytest.raises(DomainError, match="projector at site 2 is not Hermitian"):
        rb.frame_from_projection(rb.ProjectionFamily(proj, 1, lat))


def test_frame_reference_alignment():
    # aligning to a constant reference reproduces the smooth global section
    lat = rb.build_circle(8, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    p = rb.select_projection(s, {0})
    ref = np.tile(np.array([[1.0 + 0j], [0.0]]), (8, 1, 1))
    f = rb.frame_from_projection(p, ref)
    assert np.allclose(f.columns, ref)
    assert f.gauge_tag == "reference-aligned"


def test_oscillator_spectrum_matches_frequency_law():
    params = rb.OscillatorParams()
    lat = rb.build_torus2(4, 4, "eta1")
    h, _ = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    for site in range(lat.n_sites):
        nu = params.nu(lat.sites[site])
        for level in range(3):
            assert s.eigenvalues[site, level] == pytest.approx(
                nu * (level + 0.5), abs=1e-8
            )
    # adjacent-level gap is the frequency itself
    assert rb.gap_margin(s, {0}) == pytest.approx(
        min(params.nu(c) for c in lat.sites), abs=1e-8
    )


def test_inverse_iteration_converges_on_isolated_eigenvalues():
    # random real tridiagonals, one per column, and three of their
    # eigenvalues: every column converges, with no dense fallback, to
    # eigh's eigenvector up to sign where the eigenvalue is isolated
    rng = np.random.default_rng(11)
    k, c = 20, 300
    diag, off = rng.normal(size=(k, c)), np.abs(rng.normal(size=(k - 1, c)))
    off[3, ::3] = 0.0  # a zero off-diagonal entry splits T in two
    w, u = np.linalg.eigh(spectral._real_tridiagonal(diag.T, off.T))
    norm = np.abs(w).max(axis=1)
    for j in (0, 9, 19):
        x, converged = spectral._tridiagonal_eigh(diag, off, w[:, j], norm)
        assert converged.all()
        gaps = np.abs(np.delete(w, j, axis=1) - w[:, j : j + 1]).min(axis=1)
        overlap = np.abs(np.einsum("ck,kc->c", u[:, :, j], x))
        isolated = gaps > 1e-2 * norm
        assert np.all(np.abs(overlap[isolated] - 1) <= 1e-12)


def test_pivoting_bounds_element_growth():
    # zero-diagonal paths at their middle eigenvalue, 0 up to roundoff: the
    # first pivot of T - lam is raised to eps ||T||, so without row swaps the
    # next one is -off^2 / (eps ||T||), a growth of order 1/eps that
    # overflows once ||T|| passes about 1e292 (unpivoted inverse iteration
    # fails on element growth; Dhillon, BIT 38 (1998)).  Partial pivoting
    # keeps every multiplier at most 1.
    rng = np.random.default_rng(12)
    for k in (3, 5, 7, 9):
        diag = np.zeros((k, 1))
        off = 1e300 * rng.uniform(0.5, 1.0, size=(k - 1, 1))
        w, u = np.linalg.eigh(spectral._real_tridiagonal(diag.T, off.T))
        j = k // 2
        x, converged = spectral._tridiagonal_eigh(diag, off, w[:, j], np.abs(w[:, -1]))
        assert converged.all()
        assert abs(abs(u[0, :, j] @ x[:, 0]) - 1) <= 1e-14


def test_rows_that_miss_the_residual_take_dense_columns():
    # every other row's eigenvalue is moved 60% of the way to a neighbour,
    # so inverse iteration heads for the wrong vector and misses the
    # residual bound, and every 7th row is recorded as clustered (its
    # neighbour CLUSTER_TOL ||T|| away): given as arrays to one
    # _kept_columns call, each takes its column from a dense eigh of T
    rng = np.random.default_rng(5)
    k, r = 4, 9000
    diag, off = rng.normal(size=(r, k)), np.abs(rng.normal(size=(r, k - 1)))
    w, u = np.linalg.eigh(spectral._real_tridiagonal(diag, off))
    pos = rng.integers(0, k, r)
    other = np.where(pos < k - 1, pos + 1, pos - 1)
    lam = w[np.arange(r), pos]
    lam[1::2] += 0.6 * (w[np.arange(r), other] - lam)[1::2]
    out = np.ones(r * k, dtype=complex)
    at = np.arange(r * k).reshape(r, k)
    norm = np.abs(w).max(axis=1)
    near = np.where(np.arange(r) % 7 == 0, spectral.CLUSTER_TOL * norm, 1.0)
    spectral._kept_columns(diag.T, off.T, at.T, lam, norm, pos, near, out)
    overlap = np.abs(np.einsum("rk,rk->r", out.reshape(r, k), u[np.arange(r), :, pos]))
    assert np.all(np.abs(overlap - 1) <= 1e-10)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_hamiltonian_fails_the_hermiticity_guard(value):
    # a comparison with NaN is false, so a guard written "residual > bound"
    # passed a NaN entry: eigh gave finite eigenvalues, and classify failed
    # only later, at the symmetry residual
    lat = rb.build_circle(16, "reflection")

    def evaluate(c):
        mat = np.array([[0.3, 0.3], [0.3, -0.3]], dtype=complex)
        if abs(c[0] - lat.sites[3, 0]) < 1e-12:
            mat[0, 0] = value
        return mat

    h = rb.HamiltonianFamily(2, rb.pointwise(evaluate), "non-finite")
    for run in (
        lambda: rb.eigensolve_family(h, lat),
        lambda: rb.classify_real_bundle(h, rb.SymmetryData.identity(2), lat, [0]),
    ):
        with pytest.raises(ModelError) as err:
            run()
        assert str(err.value) == "non-finite: non-Hermitian output at site 3"


# -- the guards read the block's nonzero pattern -------------------------------


def parity_sector_family(lat, bad_sites, entry, value):
    """N = 40: the diagonal 0..39 and couplings 0.5 between i and i + 2, two
    tridiagonal parity sectors, with H[entry] = value at the bad sites only
    (the transposed entry stays 0)."""
    dim = 40
    base = np.diag(np.arange(dim, dtype=complex))
    i = np.arange(dim - 2)
    base[i, i + 2] = base[i + 2, i] = 0.5
    bad_coords = lat.sites[list(bad_sites)]

    def evaluate(coords):
        stack = np.repeat(base[None], len(coords), axis=0)
        bad = (np.abs(coords[:, None, :] - bad_coords[None]) < 1e-12).all(-1).any(-1)
        stack[bad, entry[0], entry[1]] = value
        return stack

    return rb.HamiltonianFamily(dim, evaluate, "sectors")


def assert_guard_names(h, lat, site):
    # the eigensolve alone and through classify, with its J = 1 residual
    for run in (
        lambda: rb.eigensolve_family(h, lat, [0]),
        lambda: rb.classify_real_bundle(h, rb.SymmetryData.identity(40), lat, [0]),
    ):
        with pytest.raises(ModelError) as err:
            run()
        assert str(err.value) == f"sectors: non-Hermitian output at site {site}"


# on the 64-site reflection circle, an N = 40 orbit block holds 10 orbits:
# site 60 lies in the first block, 45 in the second and 20 in the third, so
# the lowest bad site is found last
CIRCLE = rb.build_circle(64, "reflection")
BAD_SITES = (60, 45, 20)


def test_orbit_blocks_of_the_guard_tests():
    blocks = [set(sites.tolist()) for sites, _ in spectral.orbit_blocks(CIRCLE, 40)]
    first = [next(b for b, s in enumerate(blocks) if site in s) for site in BAD_SITES]
    assert first == [0, 1, 2]


def test_one_sided_entry_fails_the_pattern_guard():
    # H[0, 1] != 0 with H[1, 0] = 0: the symmetric pattern holds both
    # positions, so the guard compares each entry with its transpose
    h = parity_sector_family(CIRCLE, BAD_SITES, (0, 1), 0.25)
    assert_guard_names(h, CIRCLE, 20)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_outside_the_sectors_fails_the_pattern_guard(value):
    # (0, 3) joins the two parity sectors; NaN != 0 puts it in the pattern
    h = parity_sector_family(CIRCLE, BAD_SITES, (0, 3), value)
    assert_guard_names(h, CIRCLE, 20)


def test_nothing_is_solved_before_the_guard_fails(monkeypatch):
    # a one-sided entry at site 32, in the last orbit block of the circle:
    # the sector solve waits for every block's guard, so neither the
    # eigenvalues nor the inverse iteration run before the error
    def never(*args):
        raise AssertionError("a sector was solved before the guard failed")

    last, _ = list(spectral.orbit_blocks(CIRCLE, 40))[-1]
    assert 32 in last
    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    monkeypatch.setattr(spectral, "_tridiagonal_eigh", never)
    h = parity_sector_family(CIRCLE, [32], (0, 1), 0.25)
    for j in (None, rb.SymmetryData.identity(40)):
        with pytest.raises(ModelError, match="non-Hermitian output at site 32$"):
            rb.eigensolve_family(h, CIRCLE, [0], j)


@pytest.mark.parametrize("bands", [[1], [0, 1]])
def test_pattern_guards_match_dense_guards_bitwise(bands):
    # the benchmark oscillator: 116 of the 1600 entries of a block can be
    # nonzero, and the eigensolve reads only those in its guards
    lat = rb.build_torus2(48, 48, "eta1")
    h, j = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
    got = rb.eigensolve_family(h, lat, bands, j)
    want = ref.eigensolve_dense_guards(h, lat, bands, j)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
    assert np.float64(got.hamiltonian_residual).tobytes() == np.float64(
        want.hamiltonian_residual).tobytes()


def midpoint_cases():
    lat = rb.build_torus2(12, 12, "eta1")
    h, j = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
    yield "oscillator", lat, h, j, [0, 1]
    for k in (1, 2, 5):
        yield f"sphere-k{k}", rb.build_sphere2(8, 12), *rb.model_degree_k_sphere(k), [0]


@pytest.mark.parametrize("case", list(midpoint_cases()), ids=lambda c: c[0])
def test_eigensolve_over_link_midpoints(case):
    # the link midpoints with the link image form a tau-closed point set
    # that is not a lattice: the eigensolve reads only its sites and its
    # involution, and matches a dense eigvalsh at those points
    _, lat, h, j, bands = case
    points = SimpleNamespace(sites=lat.link_midpoints(), involution=lat.link_image)
    s = rb.eigensolve_family(h, points, bands, j)
    assert s.lattice is points
    assert s.eigenvalues.shape == (lat.n_links, h.dimension)
    stack = h(points.sites)
    scale = np.abs(stack).max(axis=(1, 2))
    w = np.linalg.eigvalsh(stack)
    assert np.all(np.abs(s.eigenvalues - w) <= 1e-12 * scale[:, None])
    v = s.eigenvectors
    residual = stack @ v - v * s.eigenvalues[:, None, bands]
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= 1e-12 * scale)
    assert s.hamiltonian_residual <= 1e-12 * scale.max()


def test_eigensolve_memory_stays_bounded():
    # the benchmark oscillator at rank 2: the whole-lattice sector arrays
    # (about 2.2 MB) and the sector solve's temporaries stay far below the
    # 59 MB (n_sites, N, N) tensor, with and without J's mirrored sites
    lat = rb.build_torus2(48, 48, "eta1")
    h, j = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
    for sym in (None, j):
        tracemalloc.start()
        try:
            rb.eigensolve_family(h, lat, [0, 1], sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, (sym, peak)


def test_constant_j_keeps_the_dense_residual():
    # J != 1 mixes the pattern's entries with others, so the residual is
    # taken over the dense stack, as verify_hamiltonian_symmetry does
    lat = rb.build_torus2(12, 12, "eta1")
    h, _ = rb.model_oscillator(rb.OscillatorParams(), lat)
    j = rb.SymmetryData.constant(np.diag((-1.0) ** (np.arange(40) // 2)))
    got = rb.eigensolve_family(h, lat, [0], j).hamiltonian_residual
    want = rb.verify_hamiltonian_symmetry(h, j, lat).hamiltonian_residual
    assert got > 0.1
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert got == ref.eigensolve_dense_guards(h, lat, [0], j).hamiltonian_residual


def planted_oscillator(size):
    """The eta1 12 x 12 oscillator plus `size` sin(theta1) on H[0, 0] where
    theta2 < pi: a residual of 2 size there, none elsewhere; returns the
    family, J, the lattice and the sites the plant reaches."""
    lat = rb.build_torus2(12, 12, "eta1")
    h, j = rb.model_oscillator(rb.OscillatorParams(level=1, n_basis=40), lat)
    planted = (lat.sites[:, 1] < np.pi) & (np.abs(np.sin(lat.sites[:, 0])) > 0.1)

    def evaluate(c):
        out = h(c).copy()
        out[:, 0, 0] += size * np.sin(c[:, 0]) * (c[:, 1] < np.pi)
        return out

    return rb.HamiltonianFamily(40, evaluate, "planted"), j, lat, planted


def test_mirror_falls_back_on_a_planted_residual():
    # a residual of 2e-11 passes the 1e-10 tolerance but is not roundoff:
    # its blocks solve both sites of each orbit, as without J, while the
    # blocks at roundoff solve one site per orbit and mirror the other
    h, j, lat, planted = planted_oscillator(1e-11)
    s = rb.eigensolve_family(h, lat, [0, 1], j)
    full = rb.eigensolve_family(h, lat, [0, 1])
    assert 1e-11 < s.hamiltonian_residual <= 1e-10
    tau = lat.involution
    solved = np.zeros(lat.n_sites, dtype=bool)
    for sites, _ in spectral.orbit_blocks(lat, 40):
        solved[sites] = planted[sites].any()
    image = np.arange(lat.n_sites) > tau
    assert solved.any() and (image & ~solved).any()
    same = solved | ~image  # the representatives and the planted blocks
    assert s.eigenvalues[same].tobytes() == full.eigenvalues[same].tobytes()
    assert s.eigenvectors[same].tobytes() == full.eigenvectors[same].tobytes()
    mirrored = image & ~solved
    assert s.eigenvalues[mirrored].tobytes() == s.eigenvalues[tau[mirrored]].tobytes()
    assert s.eigenvectors[mirrored].tobytes() == (
        s.eigenvectors[tau[mirrored]].conj().tobytes())


def test_broken_symmetry_raises_before_any_frame():
    def no_frame(p):
        raise AssertionError("a frame was read")

    h, j, lat, _ = planted_oscillator(1e-6)
    bundle = rb.RealBundle(h, j, lat, [0, 1], frame_rule=no_frame)
    with pytest.raises(SymmetryViolationError, match="Hamiltonian symmetry residual"):
        bundle.classify()
    assert "projection" not in vars(bundle) and "frame" not in vars(bundle)


# -- the tree gauge ------------------------------------------------------------

TREE_CASES = {
    "sphere-24x32-rank1": lambda: (
        rb.build_sphere2(24, 32), rb.model_degree_k_sphere(2)[0], [0]),
    "oscillator-12x12-rank2": lambda: (
        (lat := rb.build_torus2(12, 12, "eta1")),
        rb.model_oscillator(rb.OscillatorParams(), lat)[0],
        [0, 1],
    ),
}


@pytest.mark.parametrize("case", sorted(TREE_CASES))
def test_tree_gauge_makes_tree_overlaps_positive(case):
    lat, h, bands = TREE_CASES[case]()
    p = rb.select_projection(rb.eigensolve_family(h, lat, bands), bands)
    frame = rb.frame_from_projection(p)
    cols = rb.smooth_frame_gauge(frame, lat).columns
    child, parent, _ = np.array(ref.spanning_tree(lat)).T
    assert child.size == lat.n_sites - 1
    # V_child^dag V_parent is Hermitian positive semidefinite on every tree link
    overlap = adjoint(cols[child]) @ cols[parent]
    assert max_frob(overlap - adjoint(overlap)) <= 1e-13
    assert np.linalg.eigvalsh(0.5 * (overlap + adjoint(overlap))).min() >= -1e-13
    assert max_frob(adjoint(cols) @ cols - np.eye(len(bands))) <= 1e-13
    if len(bands) > 1:  # the same tree and levels; the SVD's polar factors
        want = ref.smooth_frame_gauge_by_levels(frame, lat).columns
        assert cols.tobytes() == want.tobytes()
        assert max_frob(cols - ref.smooth_frame_gauge(frame, lat).columns) <= 1e-13
