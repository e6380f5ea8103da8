"""Per-element loop implementations of the classify pipeline's layers.

These are the site-by-site, link-by-link and plaquette-by-plaquette versions
that the stacked-array kernels in ``realbloch`` replaced.  They are kept
only as the reference that test_batched_equivalence.py compares against:
gauge-invariant outputs must agree to 1e-12 and failures must raise the same
error class naming the same site, link or plaquette.  Each function takes
and returns the package's own data types.
"""

import csv
import math

import numpy as np
import scipy.linalg

import realbloch as rb
from realbloch.errors import (
    BranchCutError,
    DiscretizationError,
    DomainError,
    GapClosureError,
    KramersObstructionError,
    ModelError,
    RankError,
    SymmetryInconsistencyError,
    UnsupportedBaseError,
)

HERMITICITY_RTOL = 1e-12
DEGENERACY_TOL = 1e-8
OVERLAP_SINGULAR_TOL = 1e-6


# -- dense single-matrix helpers ---------------------------------------------


def frob(a) -> float:
    return float(np.linalg.norm(a))


def polar_unitary(a):
    u, s, vh = np.linalg.svd(a)
    return u @ vh, float(s[-1]) if s.size else 0.0


def unitarity_defect(u) -> float:
    m = u.shape[-1]
    return frob(u.conj().swapaxes(-1, -2) @ u - np.eye(m))


def principal_log_unitary(u, *, guard=1e-9, what="matrix"):
    if u.shape == (1, 1):
        z = u[0, 0]
        if abs(z + 1.0) < guard:
            raise BranchCutError(
                f"{what}: eigenvalue at -1 within {guard:g}; refine the lattice"
            )
        return np.array([[1j * np.angle(z)]], dtype=complex)
    w = np.linalg.eigvals(u)
    if np.min(np.abs(w + 1.0)) < guard:
        raise BranchCutError(
            f"{what}: eigenvalue at -1 within {guard:g}; refine the lattice"
        )
    a = scipy.linalg.logm(u)
    return 0.5 * (a - a.conj().T)


def expm(a):
    if a.shape == (1, 1):
        return np.array([[np.exp(a[0, 0])]], dtype=complex)
    return scipy.linalg.expm(a)


# -- spectral ------------------------------------------------------------------


def eigensolve_family(h, lat):
    n, dim = lat.n_sites, h.dimension
    values = np.empty((n, dim))
    vectors = np.empty((n, dim, dim), dtype=complex)
    for s in range(n):
        mat = h(lat.sites[s])
        if mat.shape != (dim, dim):
            raise ModelError(
                f"{h.name or 'model'}: evaluator returned shape {mat.shape}, "
                f"expected {(dim, dim)}"
            )
        scale = max(frob(mat), 1.0)
        if frob(mat - mat.conj().T) > HERMITICITY_RTOL * scale:
            raise ModelError(f"{h.name or 'model'}: non-Hermitian output at site {s}")
        values[s], vectors[s] = np.linalg.eigh(mat)
    return rb.SpectralData(values, vectors, lat)


def select_projection(s, band_indices):
    """The projector tensor of the selected bands, (n_sites, N, N)."""
    sel = sorted(set(int(b) for b in band_indices))
    dim = s.dimension
    rest = [j for j in range(dim) if j not in sel]
    if sel and rest:
        d = np.abs(
            s.eigenvalues[:, sel][:, :, None] - s.eigenvalues[:, rest][:, None, :]
        ).min(axis=(1, 2))
        worst = int(np.argmin(d))
        if d[worst] < DEGENERACY_TOL:
            raise GapClosureError(worst, float(d[worst]))
    v = s.eigenvectors[:, :, sel]
    return v @ v.conj().swapaxes(1, 2)


def frame_from_projection(projectors, rank, lat, reference=None):
    n, dim, m = projectors.shape[0], projectors.shape[1], rank
    cols = np.empty((n, dim, m), dtype=complex)
    for s in range(n):
        w, v = np.linalg.eigh(projectors[s])
        keep = np.flatnonzero(w > 0.5)
        if keep.size != m:
            raise RankError(f"projector rank {keep.size} != {m} at site {s}")
        basis = v[:, keep]
        order = np.argsort([int(np.argmax(np.abs(basis[:, c]))) for c in range(m)])
        basis = basis[:, order]
        for c in range(m):
            lead = basis[np.argmax(np.abs(basis[:, c])), c]
            if abs(lead) > 0:
                basis[:, c] *= np.conj(lead) / abs(lead)
        cols[s] = basis
    if reference is not None:
        ref = np.asarray(reference, dtype=complex)
        if ref.ndim == 2:
            ref = ref[:, :, None]
        for s in range(n):
            u, _ = polar_unitary(cols[s].conj().T @ ref[s])
            cols[s] = cols[s] @ u
    return rb.Frame(cols, lat)


def smooth_frame_gauge(f, lat):
    cols = f.columns.copy()
    neighbors = {}
    for a, b in zip(lat.link_tail, lat.link_head):
        neighbors.setdefault(int(a), []).append(int(b))
        neighbors.setdefault(int(b), []).append(int(a))
    seen = {0}
    queue = [0]
    while queue:
        parent = queue.pop(0)
        for child in neighbors.get(parent, ()):
            if child in seen:
                continue
            seen.add(child)
            v, _ = polar_unitary(cols[child].conj().T @ cols[parent])
            cols[child] = cols[child] @ v
            queue.append(child)
    return rb.Frame(cols, lat, gauge_tag="tree-smoothed")


# -- symmetry ------------------------------------------------------------------


def verify_hamiltonian_symmetry(h, j, lat):
    tau = lat.involution
    res_h = res_j = 0.0
    eye = np.eye(j.dimension)
    for s in range(lat.n_sites):
        js = j(lat.sites[s])
        jt = j(lat.sites[tau[s]])
        hs = h(lat.sites[s])
        ht = h(lat.sites[tau[s]])
        res_h = max(res_h, frob(js.conj().T @ ht @ js - hs.conj()))
        res_j = max(res_j, frob(jt @ js.conj() - j.parity * eye))
    return res_h, res_j


def verify_projection_symmetry(projectors, j, lat):
    tau = lat.involution
    res = 0.0
    for s in range(lat.n_sites):
        js = j(lat.sites[s])
        res = max(res, frob(projectors[tau[s]] @ js - js @ projectors[s].conj()))
    return res


def j_consistency(j, lat):
    tau = lat.involution
    eye = np.eye(j.dimension)
    res = 0.0
    for s in range(lat.n_sites):
        res = max(
            res,
            frob(j(lat.sites[tau[s]]) @ j(lat.sites[s]).conj() - j.parity * eye),
        )
    return res


def sewing_matrix(f, j, lat, tolerance=1e-6):
    m = f.rank
    if j.parity == -1 and m % 2 == 1 and lat.fixed_sites.size > 0:
        raise KramersObstructionError(
            f"odd parity with rank {m} over {lat.fixed_sites.size} fixed sites"
        )
    tau = lat.involution
    w = np.empty((lat.n_sites, m, m), dtype=complex)
    worst = 0.0
    for s in range(lat.n_sites):
        js = j(lat.sites[s])
        w[s] = f.columns[tau[s]].conj().T @ js @ f.columns[s].conj()
        worst = max(worst, unitarity_defect(w[s]))
    if worst > tolerance:
        raise SymmetryInconsistencyError(
            f"sewing matrix unitarity residual {worst:.3e} exceeds {tolerance:g}"
        )
    return rb.SewingField(w, lat, j.parity, worst)


# -- berry ---------------------------------------------------------------------


def link_field(f, lat):
    m = f.rank
    u = np.empty((lat.n_links, m, m), dtype=complex)
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        u[lk], smin = polar_unitary(f.columns[a].conj().T @ f.columns[b])
        if smin <= OVERLAP_SINGULAR_TOL:
            raise DiscretizationError(
                f"singular frame overlap on link {lk} ({a}->{b}), "
                f"smallest singular value {smin:.3e}"
            )
    return rb.LinkField(u, lat)


def _grid_len(lat, mu):
    return int(np.round(2.0 * np.pi / float(lat.link_spacing[lat.link_mu == mu][0])))


def link_field_from_connection(source, lat):
    if isinstance(source, rb.LocalConnectionForm):
        m = source.rank
        u = np.empty((lat.n_links, m, m), dtype=complex)
        for lk in range(lat.n_links):
            u[lk] = expm(source.a[lk] * float(lat.link_spacing[lk]))
        return rb.LinkField(u, lat)
    m = source.rank
    u = np.empty((lat.n_links, m, m), dtype=complex)
    for lk in range(lat.n_links):
        a = source.connection_at(lat.link_midpoint(lk))
        mu = int(lat.link_mu[lk])
        if mu == 2:
            step = a[0] * (2.0 * np.pi / _grid_len(lat, 0)) + a[1] * (
                2.0 * np.pi / _grid_len(lat, 1)
            )
        else:
            step = a[mu] * float(lat.link_spacing[lk])
        u[lk] = expm(step)
    return rb.LinkField(u, lat)


def local_connection_from_links(u):
    lat = u.lattice
    a = np.empty((lat.n_links, u.rank, u.rank), dtype=complex)
    for lk in range(lat.n_links):
        a[lk] = principal_log_unitary(u.u[lk], what=f"link {lk}") / float(
            lat.link_spacing[lk]
        )
    return rb.LocalConnectionForm(a, lat)


def j_conjugate_connection(a, j, lat):
    out = np.empty_like(a.a)
    for lk in range(lat.n_links):
        x = lat.sites[int(lat.link_tail[lk])]
        y = lat.sites[int(lat.link_head[lk])]
        jx, jy = j(x), j(y)
        img_id, img_sign = int(lat.link_image[lk]), int(lat.link_image_sign[lk])
        a_img = a.a[img_id] * img_sign
        a_img = a_img * float(lat.link_spacing[img_id]) / float(lat.link_spacing[lk])
        dj = principal_log_unitary(
            jx.conj().T @ jy, what=f"J step on link {lk}"
        ) / float(lat.link_spacing[lk])
        out[lk] = (jx.conj().T @ a_img @ jx + dj).conj()
    return rb.LocalConnectionForm(out, lat, a.chart)


def gauge_transform(u, g):
    g = np.asarray(g, dtype=complex)
    eye = np.eye(u.rank)
    for s in range(g.shape[0]):
        if frob(g[s].conj().T @ g[s] - eye) > 1e-10:
            raise DomainError(f"gauge matrix at site {s} is not unitary")
    lat = u.lattice
    out = np.empty_like(u.u)
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        out[lk] = g[a].conj().T @ u.u[lk] @ g[b]
    return rb.LinkField(out, lat)


def equivariance_residual(u, w, lat, parity=+1):
    worst = 0.0
    q = rb.quaternionic_q(u.rank) if parity == -1 else None
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        img = u.on(int(lat.link_image[lk]), int(lat.link_image_sign[lk]))
        lhs = w.w[a].conj().T @ img @ w.w[b]
        rhs = -q @ u.u[lk].conj() @ q if parity == -1 else u.u[lk].conj()
        worst = max(worst, frob(lhs - rhs))
    return worst


# -- curvature -----------------------------------------------------------------


def plaquette_curvature(u, lat):
    m = u.rank
    f = np.empty((lat.n_plaquettes, m, m), dtype=complex)
    for p, rows in enumerate(lat.plaquettes):
        hol = np.eye(m, dtype=complex)
        for link_id, sign in rows:
            hol = hol @ u.on(int(link_id), int(sign))
        f[p] = principal_log_unitary(hol, what=f"plaquette {p}")
    return rb.CurvatureField(f, lat)


def _elementary_symmetric(x, k):
    e = np.zeros(k + 1, dtype=complex)
    e[0] = 1.0
    for xi in x:
        for d in range(min(k, len(x)), 0, -1):
            e[d] += xi * e[d - 1]
    return e[k]


def chern_weil_density(curv, k):
    out = np.empty(curv.f.shape[0])
    for p in range(curv.f.shape[0]):
        x = np.linalg.eigvals(curv.f[p] / (2.0j * np.pi))
        out[p] = ((-1.0) ** k * _elementary_symmetric(x, k)).real
    return out


def chern_value(curv, lat):
    if lat.dim != 2 or lat.n_plaquettes == 0:
        raise UnsupportedBaseError("Chern numbers need a 2-dimensional lattice")
    return math.fsum(chern_weil_density(curv, 1))


# -- cli -----------------------------------------------------------------------


def write_connection_csv(path, u, lat, log=principal_log_unitary):
    """The CLI's connection.csv, one link at a time; returns the skip count.

    ``log(matrix, what=...)`` takes one link's principal logarithm and raises
    BranchCutError on the cut.
    """
    m = u.rank
    skipped = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x", "y", "direction"]
        for r in range(m):
            for c in range(m):
                header += [f"a{r}{c}_re", f"a{r}{c}_im"]
        writer.writerow(header)
        for lk in range(lat.n_links):
            try:
                a = log(u.u[lk], what=f"link {lk}") / float(lat.link_spacing[lk])
            except BranchCutError:
                skipped += 1
                continue
            mid = lat.link_midpoint(lk)
            row = [f"{mid[0]:.12g}", f"{mid[1] if lat.dim > 1 else 0.0:.12g}",
                   int(lat.link_mu[lk])]
            for r in range(m):
                for c in range(m):
                    row += [f"{a[r, c].real:.12g}", f"{a[r, c].imag:.12g}"]
            writer.writerow(row)
    return skipped
