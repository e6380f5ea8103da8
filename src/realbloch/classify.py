"""Assembly of free and torsion invariants into a classification verdict.

`RealBundle` holds one bundle's pipeline, from spectra and symmetry
residuals to the link and sewing fields, curvature and fixed-loop
holonomies; `classify` and every CLI task read its layers.

The classifying group per supported base is a hard-coded table; the free
part is read from the integrated first Chern density and the torsion part
from fixed-loop holonomy signs.  Along fixed loops the Real condition kills
the continuous tangential part of the connection, so the sign of the actual
(generally curved) equivariant Berry connection already is the flat
classification datum; no explicit flat representative is constructed.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .berry import (
    LinkField,
    ProductConnectionSpec,
    equivariance_residual,
    link_field,
    link_field_from_connection,
)
from .curvature import CurvatureField, chern_number, plaquette_curvature
from .errors import SymmetryViolationError, UnsupportedBaseError, UnsupportedParityError
from .holonomy import fixed_loop_holonomies
from .lattice import InvolutiveLattice
from .spectral import (
    Frame,
    HamiltonianFamily,
    ProjectionFamily,
    SpectralData,
    eigensolve_family,
    frame_from_projection,
    gap_margin,
    select_projection,
)
from .symmetry import (
    SewingField,
    SymmetryData,
    SymmetryReport,
    sewing_matrix,
    unitary_residual,
    verify_hamiltonian_symmetry,  # noqa: F401  (RealBundle.symmetry computes it)
    verify_projection_symmetry,
)

__all__ = [
    "ClassificationResult",
    "RealBundle",
    "classify_real_bundle",
]

# classifying group of rank-m Real bundles per base; free/torsion readout plan
_BASE_TABLE = {
    "circle-trivial": ("Z2", False, True),
    "circle-reflection": ("0", False, False),
    "circle-antipodal": ("0", False, False),
    "sphere2-reflect": ("Z", True, False),
    "torus2-eta": ("Z2 + Z", True, True),
    "torus2-eta1": ("Z2 + Z", True, True),
    "torus2-xi": ("Z", True, False),
    "torus2-trivial": ("Z2 + Z2", False, True),
}

DEFAULT_TOLERANCES = {
    "hamiltonian_symmetry": 1e-10,
    "projection_symmetry": 1e-8,
    "sewing_unitarity": 1e-6,
}


@dataclass
class ClassificationResult:
    base_tag: str
    group: str
    free: list
    torsion: list
    verdict: str
    diagnostics: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "base": self.base_tag,
            "group": self.group,
            "free": list(self.free),
            "torsion": list(self.torsion),
            "verdict": self.verdict,
            "diagnostics": {k: _jsonable(v) for k, v in self.diagnostics.items()},
            "warnings": list(self.warnings),
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


class RealBundle:
    """One Real bundle over a lattice, each layer computed on first read.

    The layers are cached properties over the layer functions of the other
    modules, so a layer runs at most once and only when something reads
    it; a layer raises what its function raises, and the residual checks
    that raise are classify's.  `frame_rule(projection) -> Frame` fixes the
    frame gauge, by default frame_from_projection's raw eigenvector gauge.
    With J = 1, `mirrored` marks the sites whose frame is the conjugate of
    their tau-image's bit for bit, one comparison pass; the link field, the
    rank-one plaquette fluxes and the sewing matrix are written there from
    their orbit representatives, and the equivariance residual skips what
    they wrote.  Any other frame is computed at every site.
    """

    def __init__(self, model, j, lat, bands=None, tolerances=None, frame_rule=None):
        self.model, self.lat, self.bands = model, lat, bands
        self.is_product = isinstance(model, ProductConnectionSpec)
        if bands is None and not self.is_product:
            raise ValueError("a Hamiltonian family needs `bands`, the band group")
        self.j = model.j if self.is_product and j is None else j
        self.tolerances = {**DEFAULT_TOLERANCES, **(tolerances or {})}
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            known = sorted(DEFAULT_TOLERANCES)
            raise ValueError(f"unknown tolerance keys {unknown}; known: {known}")
        for key, value in sorted(self.tolerances.items()):
            if not 0.0 < value < np.inf:  # a NaN would disable its guard
                raise ValueError(f"tolerance {key} = {value} must lie in (0, inf)")
        self.frame_rule = frame_rule or frame_from_projection

    @cached_property
    def spectra(self) -> SpectralData:  # with the Hamiltonian residual
        return eigensolve_family(self.model, self.lat, self.bands, self.j)

    @cached_property
    def symmetry(self) -> SymmetryReport:
        """verify_hamiltonian_symmetry's report, from the eigensolve's pass."""
        res_h = self.spectra.hamiltonian_residual  # the eigensolve fails first
        tol = self.tolerances["hamiltonian_symmetry"]
        return SymmetryReport(res_h, unitary_residual(self.j, self.lat), tol)

    @cached_property
    def j_residual(self) -> float:
        """J's own consistency residual, the symmetry check of a product spec."""
        return _j_consistency(self.j, self.lat)

    @cached_property
    def band_gap(self) -> float:
        return gap_margin(self.spectra, self.bands)

    @cached_property
    def projection(self) -> ProjectionFamily:
        return select_projection(self.spectra, self.bands)

    @cached_property
    def projection_residual(self) -> float:
        return verify_projection_symmetry(self.projection, self.j, self.lat)

    @cached_property
    def frame(self) -> Frame:
        return self.frame_rule(self.projection)

    @cached_property
    def mirrored(self) -> Optional[np.ndarray]:
        """With J = 1, the sites whose frame is the conjugate of their
        tau-image's, bit for bit; None for any other J and a product spec."""
        if self.is_product or self.j is None or not self.j.unit:
            return None
        tau = self.lat.involution
        cols = self.frame.columns.reshape(tau.size, -1)  # flat rows: take is fast
        high = np.flatnonzero(tau <= np.arange(tau.size))  # one site per orbit
        image = cols.take(tau[high], axis=0)
        same = (cols.take(high, axis=0) == np.conjugate(image, out=image)).all(axis=1)
        mirrored = np.zeros(tau.size, bool)
        mirrored[high] = mirrored[tau[high]] = same
        return mirrored

    @cached_property
    def links(self) -> LinkField:
        if self.is_product:
            return link_field_from_connection(self.model, self.lat)
        return link_field(self.frame, self.lat, self.mirrored)

    @cached_property
    def sewing(self) -> SewingField:
        j, lat = self.j, self.lat
        if self.is_product:
            # standard-basis frames make the sewing matrix equal to J itself
            return SewingField(j(lat.sites), j.parity, 0.0)
        tol = self.tolerances["sewing_unitarity"]
        return sewing_matrix(self.frame, j, lat, tol, self.mirrored)

    @cached_property
    def equivariance(self) -> float:
        return equivariance_residual(self.links, self.sewing, self.lat, self.mirrored)

    @cached_property
    def curvature(self) -> CurvatureField:
        return plaquette_curvature(self.links, self.lat, self.mirrored)

    @cached_property
    def chern(self) -> tuple:
        """(real value, rounded integer) of the first Chern number."""
        return chern_number(self.curvature, self.lat)

    @cached_property
    def fixed_loops(self) -> list:
        return fixed_loop_holonomies(self.links, self.lat, self.sewing)

    def classify(self) -> ClassificationResult:
        """Free and torsion invariants with diagnostics.  The symmetry
        residuals are checked before the gap, the gap before the projection
        residual, and all of them before the connection is built."""
        lat, tol, j = self.lat, self.tolerances, self.j
        if lat.base_tag not in _BASE_TABLE:
            raise UnsupportedBaseError(f"no classification table for {lat.base_tag}")
        group, want_free, want_torsion = _BASE_TABLE[lat.base_tag]
        if j is None:
            raise ValueError("Hamiltonian classification needs symmetry data")
        if j.parity != +1:
            raise UnsupportedParityError("only even time reversal is classified here")

        if self.is_product:
            jres = self.j_residual
            diagnostics = {"unitary_residual": jres}
            if not (jres <= tol["hamiltonian_symmetry"] * 1e2 or jres <= 1e-8):
                raise SymmetryViolationError(
                    f"J equivariance residual {jres:.3e} on {lat.base_tag}"
                )
            if j.dimension != self.model.rank:
                raise ValueError("product-bundle J must act on the full fiber")
        else:
            # the eigensolve: a non-Hermitian family fails there, before the checks
            report = self.symmetry
            diagnostics = {
                "hamiltonian_residual": report.hamiltonian_residual,
                "unitary_residual": report.unitary_residual,
            }
            if not report.symmetric:
                raise SymmetryViolationError(
                    f"Hamiltonian symmetry residual {report.hamiltonian_residual:.3e} "
                    f"/ unitary residual {report.unitary_residual:.3e} above "
                    f"{tol['hamiltonian_symmetry']:g}"
                )
            diagnostics["gap_margin"] = self.band_gap
            pres = self.projection_residual
            diagnostics["projection_residual"] = pres
            if not pres <= tol["projection_symmetry"]:
                raise SymmetryViolationError(
                    f"projection symmetry residual {pres:.3e} above "
                    f"{tol['projection_symmetry']:g}"
                )
            self.links  # a singular overlap is reported before a sewing failure
            diagnostics["sewing_unitarity"] = self.sewing.unitarity_residual
        diagnostics["equivariance_residual"] = self.equivariance

        free: list = []
        torsion: list = []
        if want_free:
            value, rounded = self.chern
            diagnostics["chern_value"] = value
            diagnostics["quantization_residual"] = abs(value - rounded)
            free.append(rounded)
        if want_torsion:
            torsion = [rec.sign for rec in self.fixed_loops]
            diagnostics["reality_residuals"] = [
                rec.reality_residual for rec in self.fixed_loops
            ]
        warnings = []
        if lat.base_tag in ("torus2-eta", "torus2-eta1"):
            warnings.append(
                "mixed free+torsion base: the splitting into the integer and the "
                "sign pair is not canonical; both are reported"
            )
        return ClassificationResult(
            base_tag=lat.base_tag,
            group=group,
            free=free,
            torsion=torsion,
            verdict=_verdict(lat.base_tag, free, torsion),
            diagnostics=diagnostics,
            warnings=warnings,
        )


def classify_real_bundle(
    model: Union[HamiltonianFamily, ProductConnectionSpec],
    j: Optional[SymmetryData] = None,
    lat: Optional[InvolutiveLattice] = None,
    bands=None,
    tolerances: Optional[dict] = None,
    threads: int = 1,
) -> ClassificationResult:
    """Classify the Real bundle of a symmetric family over a supported base.

    Hamiltonian families are classified through their isolated-band Berry
    connection (the bands argument, required for them, selects the group,
    ascending 0-based) in the raw eigenvector gauge; product-bundle models
    are classified through their closed-form connection and ignore bands.
    Raises distinct errors for unsupported bases, odd parity, gap closure,
    and symmetry violations.  `threads` has no effect.
    """
    if lat is None:
        raise ValueError("a lattice is required")
    return RealBundle(model, j, lat, bands, tolerances).classify()


def _j_consistency(j: SymmetryData, lat: InvolutiveLattice) -> float:
    """J's unitary residual (see symmetry.unitary_residual), the symmetry
    check of a product spec."""
    return unitary_residual(j, lat)


def _verdict(base_tag: str, free: list, torsion: list) -> str:
    if base_tag == "circle-trivial":
        return "Mobius class" if torsion and torsion[0] == -1 else "trivial"
    if base_tag in ("circle-reflection", "circle-antipodal"):
        return "trivial"
    if base_tag in ("sphere2-reflect", "torus2-xi"):
        return f"Chern {free[0]}"
    if base_tag in ("torus2-eta", "torus2-eta1"):
        return f"free {free[0]}, torsion ({torsion[0]:+d}, {torsion[1]:+d})"
    if base_tag == "torus2-trivial":
        signs = ", ".join(f"{s:+d}" for s in torsion)
        return f"torsion ({signs})"
    return "trivial"

