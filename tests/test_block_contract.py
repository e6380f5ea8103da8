"""The block evaluator contract against per-point evaluation.

Every shipped model, each direct sum and the constant J evaluate an (n, d)
coordinate block in one call.  tests/loop_reference.py keeps the per-point
forms they replaced and the loops that called them once per site, link,
plaquette or curve step.  Where the arithmetic is the same the stacks must
be bitwise equal; the degree-k sphere goes through numpy's sin, cos and
complex power, so it is held to 1e-15.
"""

import numpy as np
import pytest

import loop_reference as ref
import realbloch as rb
import realbloch.cli as cli
from conftest import SX, SZ, constant_diag
from realbloch.errors import ModelError

BLOCK = 37
OSC = rb.OscillatorParams(level=1, n_basis=40, delta=0.8)
# g and its derivative vary, so the broadcast of a constant g is not all
# that is exercised
OSC_G = rb.OscillatorParams(level=0, n_basis=24, g=np.cos, dg=lambda t: -np.sin(t))
TORUS = rb.build_torus2(8, 8, "eta1")


def sum_specs_parts():
    return rb.model_mobius_circle(), rb.model_trivial_line("circle-trivial", 1)


def sum_specs():
    return rb.direct_sum_specs(*sum_specs_parts())


def sum_hamiltonians():
    return rb.direct_sum_hamiltonians(
        rb.model_degree_k_sphere(1), rb.model_degree_k_sphere(-2)
    )


# name: (block evaluator, per-point evaluator, coordinate dimension, tolerance)
CASES = {
    **{
        f"sphere-k{k:+d}-H": (
            rb.model_degree_k_sphere(k)[0], ref.degree_k_sphere(k), 2, 1e-15
        )
        for k in (-3, -1, 1, 2, 5)
    },
    "sphere-J": (rb.model_degree_k_sphere(2)[1], ref.constant(np.eye(2)), 2, 0.0),
    "oscillator-H": (rb.model_oscillator(OSC, TORUS)[0], ref.oscillator(OSC), 2, 0.0),
    "oscillator-g-H": (
        rb.model_oscillator(OSC_G, TORUS)[0], ref.oscillator(OSC_G), 2, 0.0
    ),
    "oscillator-J": (
        rb.model_oscillator(OSC, TORUS)[1], ref.constant(np.eye(40)), 2, 0.0
    ),
    "constant-J": (rb.SymmetryData.constant(SX), ref.constant(SX), 1, 0.0),
    "mobius-circle-J": (rb.model_mobius_circle().j, ref.mobius_j, 1, 0.0),
    "mobius-circle-A": (
        rb.model_mobius_circle().connection_at, ref.mobius_circle_connection, 1, 0.0
    ),
    "mobius-pullback-J": (rb.model_mobius_pullback_torus().j, ref.mobius_j, 2, 0.0),
    "mobius-pullback-A": (
        rb.model_mobius_pullback_torus().connection_at,
        ref.mobius_pullback_connection,
        2,
        0.0,
    ),
    "trivial-line-A": (
        rb.model_trivial_line("torus2-xi", 2).connection_at,
        ref.trivial_line_connection(2),
        2,
        0.0,
    ),
    "flat-line-A": (
        rb.model_flat_line(0.3).connection_at, ref.flat_line_connection(0.3), 1, 0.0
    ),
    "sum-specs-A": (
        sum_specs().connection_at,
        ref.direct_sum_connection(*sum_specs_parts()),
        1,
        0.0,
    ),
    "sum-specs-J": (
        sum_specs().j,
        ref.direct_sum(*(s.j for s in sum_specs_parts())),
        1,
        0.0,
    ),
    "sum-hamiltonians-H": (
        sum_hamiltonians()[0],
        ref.direct_sum(rb.model_degree_k_sphere(1)[0], rb.model_degree_k_sphere(-2)[0]),
        2,
        1e-15,
    ),
    "sum-hamiltonians-J": (
        sum_hamiltonians()[1],
        ref.direct_sum(rb.model_degree_k_sphere(1)[1], rb.model_degree_k_sphere(-2)[1]),
        2,
        0.0,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_block_matches_per_point(rng, case):
    block, point, dim, tol = CASES[case]
    coords = rng.uniform(-2 * np.pi, 2 * np.pi, size=(BLOCK, dim))
    got = block(coords)
    want = np.stack([np.asarray(point(c), dtype=complex) for c in coords])
    assert got.shape == want.shape
    if tol:
        assert np.max(np.abs(got - want)) <= tol
    else:
        assert np.array_equal(got, want)
    # one (d,) point is a block of one
    assert np.array_equal(block(coords[3]), block(coords[3:4])[0])


def test_constant_j_is_never_materialised():
    j = rb.model_oscillator(OSC, TORUS)[1](TORUS.sites)
    assert j.shape == (TORUS.n_sites, 40, 40)
    assert j.strides[0] == 0 and not j.flags.writeable


def test_pointwise_adapts_per_point_functions():
    lat = rb.build_sphere2(8, 12)
    h, j = rb.model_degree_k_sphere(2)
    wrapped = rb.HamiltonianFamily(2, rb.pointwise(ref.degree_k_sphere(2)), "wrapped")
    got = rb.eigensolve_family(wrapped, lat).eigenvalues
    assert np.max(np.abs(got - rb.eigensolve_family(h, lat).eigenvalues)) <= 1e-15
    result = rb.classify_real_bundle(wrapped, j, lat, [0])
    assert result.verdict == "Chern 2"
    spec = rb.ProductConnectionSpec(
        rank=1,
        connection=rb.pointwise(ref.mobius_circle_connection),
        j=rb.SymmetryData(1, +1, rb.pointwise(ref.mobius_j), "point-J"),
        base_tag="circle-trivial",
    )
    assert rb.classify_real_bundle(spec, lat=rb.build_circle(16, "trivial")).verdict \
        == "Mobius class"


def test_unwrapped_per_point_evaluators_raise():
    # per point, c[0] is the angle; on a block it is the first row, so these
    # would sample one site's value for all of them without the shape guard
    lat = rb.build_circle(16, "trivial")
    h = rb.HamiltonianFamily(2, lambda c: np.cos(c[0]) * SX, "per-point")
    with pytest.raises(ModelError) as err:
        rb.eigensolve_family(h, lat)
    assert str(err.value) == (
        "per-point: evaluator returned shape (2, 2), expected (16, 2, 2)"
    )
    j = rb.SymmetryData(2, +1, lambda c: np.exp(1j * c[0]) * SX, "per-point-J")
    with pytest.raises(ModelError, match="per-point-J: evaluator returned shape"):
        rb.verify_hamiltonian_symmetry(constant_diag([-1.0, 1.0]), j, lat)
    spec = rb.ProductConnectionSpec(
        1, ref.mobius_circle_connection, rb.model_mobius_circle().j, "circle-trivial"
    )
    with pytest.raises(ModelError) as err:
        rb.link_field_from_connection(spec, lat)
    assert str(err.value) == (
        "connection: evaluator returned shape (1, 1, 1), expected (16, 1, 1, 1)"
    )


def test_affine_evaluators_return_real_coefficients():
    # an affine family's evaluator returns (n, T) real coefficients: a stack,
    # or complex coefficients whose imaginary part the real sum would drop,
    # raise as any other output of the wrong kind
    lat = rb.build_circle(16, "trivial")
    terms = np.stack([SX, SZ])
    h = rb.HamiltonianFamily(2, lambda c: np.cos(c[:, :, None]) * SX, "stack", terms)
    with pytest.raises(ModelError) as err:
        rb.eigensolve_family(h, lat)
    assert str(err.value) == (
        "stack: evaluator returned shape (16, 2, 2), expected (16, 2)")
    h = rb.HamiltonianFamily(2, lambda c: np.exp(1j * c[:, [0, 0]]), "complex", terms)
    for run in (lambda: h(lat.sites), lambda: rb.eigensolve_family(h, lat)):
        with pytest.raises(ModelError, match="^complex: complex coefficients$"):
            run()


# -- the loops that sampled once per element -----------------------------------


def circle_curve(t):
    return np.array([2 * np.pi * t]), np.array([2 * np.pi])


@pytest.mark.parametrize("spec", [sum_specs(), rb.model_mobius_circle()])
def test_continuum_holonomy_matches_per_step(spec):
    got = rb.continuum_holonomy(spec, circle_curve, 64).hol
    assert np.max(np.abs(got - ref.continuum_holonomy(spec, circle_curve, 64))) <= 1e-14


def test_gb_obstruction_matches_per_link():
    lat = rb.build_circle(24, "trivial")
    proj = np.tile(np.diag([1.0, 0.0]).astype(complex), (lat.n_sites, 1, 1))
    cols = np.zeros((lat.n_sites, 2, 1), dtype=complex)
    cols[:, 0, 0] = 1.0
    p = rb.ProjectionFamily(cols, (0,))
    j = rb.SymmetryData(
        2, +1, rb.pointwise(lambda c: np.exp(1j * c[0]) * np.eye(2)), "winding"
    )
    got = rb.gb_equivariance_obstruction(p, j, lat)
    assert abs(got - ref.gb_equivariance_obstruction(proj, j, lat)) <= 1e-12
    assert got > 0.5


def test_oscillator_section_and_oracle_match_per_element():
    lat = rb.build_torus2(12, 12, "eta1")
    section = rb.oscillator_reference_section(OSC, lat)
    assert np.max(np.abs(section - ref.oscillator_reference_section(OSC, lat))) <= 1e-14
    h, _ = rb.model_oscillator(OSC, lat)
    p = rb.select_projection(rb.eigensolve_family(h, lat), [OSC.level])
    u = rb.link_field(rb.frame_from_projection(p, section), lat)
    curv = rb.plaquette_curvature(u, lat)
    got = cli._oscillator_oracle(OSC, u, curv, lat)
    want = ref.oscillator_oracle(OSC, u, curv, lat)
    assert got.keys() == want.keys()
    for key in got:
        assert abs(got[key] - want[key]) <= 1e-12
