"""Differential-geometric invariants of time-reversal symmetric Bloch
bundles on discretized involutive manifolds.

The pipeline: build an involutive lattice, evaluate a symmetric Hamiltonian
family (or a closed-form product-bundle model), extract isolated-band
frames, discretize the Berry connection as unitary link variables, then
read the free invariant from plaquette curvature and the torsion invariants
from fixed-loop holonomy signs.
"""

from .berry import (
    LinkField,
    LocalConnectionForm,
    ProductConnectionSpec,
    average_connection,
    equivariance_residual,
    gauge_transform,
    j_conjugate_connection,
    link_field,
    link_field_from_connection,
    local_connection_from_links,
    local_connection_from_spec,
)
from .classify import (
    ClassificationResult,
    RealBundle,
    classify_real_bundle,
    mixed_case_report,
)
from .curvature import (
    CurvatureField,
    chern_number,
    chern_weil_density,
    curvature_parity_check,
    gb_curvature_direct,
    plaquette_curvature,
)
from .holonomy import (
    FixedLoopHolonomy,
    HolonomyResult,
    continuum_holonomy,
    fixed_loop_holonomies,
    flat_moduli_holonomy,
    holonomy_equivariance_check,
    wilson_loop,
)
from .lattice import (
    InvolutiveLattice,
    LoopPath,
    build_circle,
    build_sphere2,
    build_torus2,
    circle_loop,
    fixed_loops,
    latitude_loop,
    map_loop,
    sphere_embedding,
    torus_row_loop,
)
from .models import (
    OscillatorParams,
    degree_oracle,
    direct_sum_hamiltonians,
    direct_sum_specs,
    hermite_eigenfunction,
    model_degree_k_sphere,
    model_flat_line,
    model_mobius_circle,
    model_mobius_pullback_torus,
    model_oscillator,
    model_trivial_line,
    oscillator_analytic_connection,
    oscillator_analytic_curvature,
    oscillator_curvature_component,
    oscillator_plaquette_flux,
    oscillator_reference_section,
)
from .spectral import (
    Frame,
    HamiltonianFamily,
    ProjectionFamily,
    SpectralData,
    eigensolve_family,
    frame_from_projection,
    gap_margin,
    pointwise,
    select_projection,
    smooth_frame_gauge,
)
from .symmetry import (
    SewingField,
    SymmetryData,
    SymmetryReport,
    gb_equivariance_obstruction,
    quaternionic_q,
    sewing_matrix,
    verify_hamiltonian_symmetry,
    verify_projection_symmetry,
)

__version__ = "0.1.0"
