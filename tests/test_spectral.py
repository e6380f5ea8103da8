import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
import realbloch as rb
from conftest import constant_diag
from realbloch import spectral
from realbloch._matrix import adjoint, max_frob, polar_unitaries
from realbloch.errors import GapClosureError, ModelError, SymmetryViolationError


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


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(2, 9),
    pool=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, 8), min_size=1, max_size=9),
)
def test_site_gaps_read_the_boundary_pairs_only(dim, pool, seed, picks):
    # ascending eigenvalues drawn from a small pool of values, so bands tie
    # within and across the selection, which may skip bands or take them
    # all: the boundary-pair gaps equal the minimum over every selected and
    # unselected pair bit for bit, and a touching selection names the same
    # site as the loop reference
    rng = np.random.default_rng(seed)
    values = rng.normal(size=pool) * 10.0 ** rng.integers(-9, 3, size=pool)
    w = np.sort(rng.choice(values, size=(7, dim)), axis=1)
    sel = sorted({b % dim for b in picks})
    got = spectral._site_gaps(rb.SpectralData(w, None, ()), sel)
    want = ref.site_gaps(w, sel)
    if want is None:
        assert got is None
        return
    assert got.tobytes() == want.tobytes()
    vectors = np.broadcast_to(np.eye(dim, dtype=complex), (7, dim, dim))
    s = rb.SpectralData(w, vectors, tuple(range(dim)))
    assert rb.gap_margin(s, sel) == float(want.min())
    worst = int(np.argmin(want))
    if want[worst] < spectral.DEGENERACY_TOL:
        with pytest.raises(GapClosureError) as err:
            rb.select_projection(s, sel)
        with pytest.raises(GapClosureError) as loop_err:
            ref.select_projection(s, sel)
        assert err.value.site == loop_err.value.site == worst
        assert str(err.value) == str(loop_err.value)
    else:
        rb.select_projection(s, sel)


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


def test_frame_reference_alignment():
    # aligning to a constant reference reproduces the smooth global section
    lat = rb.build_circle(8, "trivial")
    s = rb.eigensolve_family(constant_diag([-1.0, 1.0]), lat)
    p = rb.select_projection(s, {0})
    ref = np.tile(np.array([[1.0 + 0j], [0.0]]), (8, 1, 1))
    f = rb.frame_from_projection(p, ref)
    assert np.allclose(f.columns, ref)


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


# N = 40: the diagonal 0..39 and couplings 0.5 between i and i + 2, two
# tridiagonal parity sectors
SECTOR_BASE = np.diag(np.arange(40, dtype=complex))
SECTOR_BASE[np.arange(38), np.arange(2, 40)] = 0.5
SECTOR_BASE[np.arange(2, 40), np.arange(38)] = 0.5


def parity_sector_family(lat, bad_sites, entry, value):
    """SECTOR_BASE with H[entry] = value at the bad sites only (the
    transposed entry stays 0)."""
    dim = 40
    bad_coords = lat.sites[list(bad_sites)]

    def evaluate(coords):
        stack = np.repeat(SECTOR_BASE[None], len(coords), axis=0)
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


# on the 64-site reflection circle, an orbit block of 40 x 40 matrices
# (1600 values per site) holds 10 orbits: site 60 lies in the first block,
# 45 in the second and 20 in the third, so the lowest bad site is found last
CIRCLE = rb.build_circle(64, "reflection")
BAD_SITES = (60, 45, 20)


def test_orbit_blocks_of_the_guard_tests():
    blocks = [set(sites.tolist()) for sites, _ in spectral.orbit_blocks(CIRCLE, 1600)]
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

    last, _ = list(spectral.orbit_blocks(CIRCLE, 1600))[-1]
    assert 32 in last
    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    monkeypatch.setattr(spectral, "_tridiagonal_eigh", never)
    h = parity_sector_family(CIRCLE, [32], (0, 1), 0.25)
    for j in (None, rb.SymmetryData.identity(40)):
        with pytest.raises(ModelError, match="non-Hermitian output at site 32$"):
            rb.eigensolve_family(h, CIRCLE, [0], j)


# -- the guards on an affine family's entries ----------------------------------

# with the 116 pattern entries of SECTOR_BASE, an orbit block
# of the 384-site reflection circle holds 141 orbits: site 300 lies in the
# first block and 150 in the second, so the lowest bad site is found last
AFFINE_CIRCLE = rb.build_circle(384, "reflection")
AFFINE_BAD_SITES = (300, 150)
ONE_SIDED = np.zeros((40, 40))
ONE_SIDED[0, 2] = 0.25  # inside the even sector, its transpose 0


def affine_sector_family(term, value):
    """SECTOR_BASE as the first term of an affine family, with coefficient
    1, plus `term` with coefficient `value` at the bad sites and 0
    elsewhere."""
    bad_coords = AFFINE_CIRCLE.sites[list(AFFINE_BAD_SITES)]

    def coefficients(coords):
        bad = (np.abs(coords[:, None, :] - bad_coords[None]) < 1e-12).all(-1).any(-1)
        return np.stack([np.ones(len(coords)), np.where(bad, value, 0.0)], axis=1)

    terms = np.stack([SECTOR_BASE, term])
    return rb.HamiltonianFamily(40, coefficients, "affine", terms)


AFFINE_BAD = {
    "nan-coefficient": (np.eye(40), np.nan),
    "inf-coefficient": (np.eye(40), np.inf),
    "non-hermitian-term": (ONE_SIDED, 1.0),
}


@pytest.mark.parametrize("case", sorted(AFFINE_BAD))
def test_affine_guards_name_the_lowest_site_before_any_solve(monkeypatch, case):
    # the guards read entries summed from the terms, with no (n, N, N) stack:
    # the same message as the same matrices behind a plain evaluator, and
    # nothing solved before it (the sector solve waits for every block)
    blocks = [set(s.tolist()) for s, _ in spectral.orbit_blocks(AFFINE_CIRCLE, 116)]
    assert [next(b for b, s in enumerate(blocks) if site in s)
            for site in AFFINE_BAD_SITES] == [0, 1]
    h = affine_sector_family(*AFFINE_BAD[case])
    plain = rb.HamiltonianFamily(40, h.__call__, h.name)
    syms = (None, rb.SymmetryData.identity(40))
    dense = []
    for j in syms:
        with pytest.raises(ModelError) as err:
            rb.eigensolve_family(plain, AFFINE_CIRCLE, [0], j)
        dense.append(str(err.value))

    def never(*args):
        raise AssertionError("a sector was solved or a stack formed")

    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    monkeypatch.setattr(spectral, "_tridiagonal_eigh", never)
    monkeypatch.setattr(rb.HamiltonianFamily, "__call__", never)
    for j, want in zip(syms, dense):
        with pytest.raises(ModelError) as err:
            rb.eigensolve_family(h, AFFINE_CIRCLE, [0], j)
        assert str(err.value) == want == "affine: non-Hermitian output at site 150"


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
    yield "oscillator-band1", lat, h, j, [1]
    for k in (1, 2, 5):
        yield f"sphere-k{k}", rb.build_sphere2(8, 12), *rb.model_degree_k_sphere(k), [0]


@pytest.mark.parametrize("case", list(midpoint_cases()), ids=lambda c: c[0])
def test_eigensolve_over_link_midpoints(case):
    # the link midpoints with the link image form a tau-closed point set
    # that is not a lattice: the eigensolve reads only its sites and its
    # involution, and matches a dense eigvalsh at those points; projection
    # and frame follow it there, and no result carries the point set
    _, lat, h, j, bands = case
    points = SimpleNamespace(sites=lat.link_midpoints(), involution=lat.link_image)
    s = rb.eigensolve_family(h, points, bands, j)
    p = rb.select_projection(s, bands)
    f = rb.frame_from_projection(p)
    for result in (s, p, f):
        assert not hasattr(result, "lattice")
    assert rb.gap_margin(s, bands) > 0
    assert s.eigenvalues.shape == (lat.n_links, h.dimension)
    stack = h(points.sites)
    scale = np.abs(stack).max(axis=(1, 2))
    w = np.linalg.eigvalsh(stack)
    assert np.all(np.abs(s.eigenvalues - w) <= 1e-12 * scale[:, None])
    v = s.eigenvectors
    residual = stack @ v - v * s.eigenvalues[:, None, bands]
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= 1e-12 * scale)
    assert s.hamiltonian_residual <= 1e-12 * scale.max()
    # each midpoint's frame columns are eigenvectors of H there
    psi = f.columns
    lam = np.einsum("nim,nij,njm->nm", psi.conj(), stack, psi).real
    residual = stack @ psi - psi * lam[:, None, :]
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= 1e-12 * scale)
    want = s.eigenvalues[:, bands]
    assert np.all(np.abs(np.sort(lam, axis=1) - want) <= 1e-12 * scale[:, None])


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
    for sites, _ in spectral.orbit_blocks(lat, 1600):
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


class CountedIndex(np.ndarray):
    """An index array that counts the gathers made from it."""

    gathers = 0

    def __getitem__(self, key):
        CountedIndex.gathers += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("case", sorted(TREE_CASES))
def test_tree_gauge_makes_tree_overlaps_positive(case, monkeypatch):
    lat, h, bands = TREE_CASES[case]()
    p = rb.select_projection(rb.eigensolve_family(h, lat, bands), bands)
    frame = rb.frame_from_projection(p)
    polar_calls = []

    def counted_polar(a):
        polar_calls.append(a.shape)
        return polar_unitaries(a)

    monkeypatch.setattr(spectral, "polar_unitaries", counted_polar)
    lat.tree_parent = lat.tree_parent.view(CountedIndex)
    CountedIndex.gathers = 0
    cols = rb.smooth_frame_gauge(frame, lat).columns
    child, parent, depth = np.array(ref.spanning_tree(lat)).T
    assert child.size == lat.n_sites - 1
    # no step per tree level: one polar call for the tree overlaps, one to
    # re-unitarize, and ceil(log2 depth) doubling steps
    assert polar_calls == [(lat.n_sites,) + (len(bands),) * 2] * 2
    assert CountedIndex.gathers <= math.ceil(math.log2(depth.max())) + 1
    # V_child^dag V_parent is Hermitian positive semidefinite on every tree link
    overlap = adjoint(cols[child]) @ cols[parent]
    assert max_frob(overlap - adjoint(overlap)) <= 1e-13
    assert np.linalg.eigvalsh(0.5 * (overlap + adjoint(overlap))).min() >= -1e-13
    assert max_frob(adjoint(cols) @ cols - np.eye(len(bands))) <= 1e-13
    # the sequential walk down the same tree; pointer doubling multiplies in
    # another order, so the two agree to roundoff, not bit for bit
    assert max_frob(cols - ref.smooth_frame_gauge(frame, lat).columns) <= 1e-13


def test_projection_family_compares_by_identity():
    # an ndarray field has no truth value, so equality is identity and the
    # family stays hashable
    cols = np.zeros((2, 2, 1), complex)
    p, q = rb.ProjectionFamily(cols, (0,)), rb.ProjectionFamily(cols.copy(), (0,))
    assert p == p and p != q
    assert len({p, q}) == 2


def test_result_types_compare_by_identity():
    # every result type and the lattice hold ndarrays: two with equal
    # contents compare unequal without raising, each equals itself, and both
    # hash
    z = np.zeros((2, 2, 1), complex)
    hol = rb.HolonomyResult(np.eye(1), None, 0)
    makers = [
        lambda: rb.Frame(z.copy()),
        lambda: rb.SpectralData(np.zeros((2, 2)), z.copy(), (0,)),
        lambda: rb.LinkField(np.ones((2, 1, 1), complex)),
        lambda: rb.LocalConnectionForm(np.zeros((2, 1, 1), complex)),
        lambda: rb.CurvatureField(np.zeros((2, 1, 1), complex)),
        lambda: rb.SewingField(np.ones((2, 1, 1), complex), 1, 0.0),
        lambda: rb.HolonomyResult(np.eye(1), None, 0),
        lambda: rb.FixedLoopHolonomy(hol, 0.0, 1),
        lambda: rb.build_circle(4, "trivial"),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b}) == 2
