"""Per-element loop implementations of the classify pipeline's layers.

These are the site-by-site, link-by-link and plaquette-by-plaquette versions
that the stacked-array kernels in ``realbloch`` replaced.  They are kept
only as the reference that test_batched_equivalence.py compares against:
gauge-invariant outputs must agree to 1e-12 and failures must raise the same
error class naming the same site, link or plaquette.  Each function takes
and returns the package's own data types, except the lattice builders:
``*_fields`` return a builder's constructor fields and ``lattice_tables``
the tables derived from them (a dict of directed links, walked link by link
and plaquette by plaquette), which test_lattice.py compares bitwise.
``fixed_loops`` walks every link into a dict of fixed neighbours, and
``wilson_loop`` multiplies a loop's links one at a time; the kernels must
reproduce both bit for bit.  ``map_loop``, ``curvature_parity_check``
and ``holonomy_equivariance_check`` have no batched twin: they are the
involution's image of a loop and the paper's parity and equivariance
relations, checked plaquette by plaquette and loop by loop, that the tests
apply to the package's fields.  The per-point model evaluators, and the
loops that called them once per site, link, plaquette or curve step, are
the reference of test_block_contract.py.  The CLI's CSV writers, one row,
link or plaquette at a time, are the reference whose bytes test_cli.py
compares.
``eigensolve_dense_guards`` (the eigensolve's guards over dense blocks)
and ``site_gaps`` (the band gap over every selected and unselected pair)
are references that test_spectral.py compares bit for bit;
``smooth_frame_gauge`` walks the lattice's stated tree site by site.
"""

import csv
import math

import numpy as np
import scipy.linalg

import realbloch as rb
from realbloch import spectral
from realbloch._matrix import BRANCH_CUT_GUARD, spectral_maps
from realbloch.errors import (
    BranchCutError,
    DiscretizationError,
    DomainError,
    GapClosureError,
    IndeterminateHolonomyError,
    InvalidDiscretizationError,
    KramersObstructionError,
    ModelError,
    SymmetryInconsistencyError,
    UnsupportedBaseError,
)

HERMITICITY_RTOL = 1e-12
DEGENERACY_TOL = 1e-8
OVERLAP_SINGULAR_TOL = 1e-6


# -- dense single-matrix helpers ---------------------------------------------


def frob(a) -> float:
    return float(np.linalg.norm(a))


def link_on(u, link_id, sign):
    """A link field's unitary on one link, traversed forwards (sign > 0) or
    backwards (the adjoint)."""
    return u.u[link_id] if sign > 0 else u.u[link_id].conj().T


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


# -- lattice -------------------------------------------------------------------


def circle_fields(n_sites, kind):
    """Constructor fields of build_circle."""
    idx = np.arange(n_sites)
    if kind == "trivial":
        tau = idx.copy()
    elif kind == "reflection":
        tau = (-idx) % n_sites
    else:
        tau = (idx + n_sites // 2) % n_sites
    return dict(
        topology_tag="circle",
        involution_kind=kind,
        sites=(2.0 * np.pi * idx / n_sites)[:, None],
        link_tail=idx,
        link_head=(idx + 1) % n_sites,
        link_mu=np.zeros(n_sites, dtype=int),
        link_spacing=np.full(n_sites, 2.0 * np.pi / n_sites),
        plaquette_corners=corner_array([]),
        plaquette_centers=np.zeros((0, 1)),
        plaquette_areas=np.zeros(0),
        involution=tau,
        orientation_flip=(kind == "reflection"),
    )


def torus2_fields(n1, n2, kind):
    """Constructor fields of build_torus2, site by site and cell by cell."""

    def sid(i, j):
        return (i % n1) * n2 + (j % n2)

    n_sites = n1 * n2
    ii, jj = np.divmod(np.arange(n_sites), n2)
    h1, h2 = 2.0 * np.pi / n1, 2.0 * np.pi / n2
    sites = np.column_stack([h1 * ii, h2 * jj])

    tail, head, mu, spacing = [], [], [], []
    for i in range(n1):
        for j in range(n2):
            tail += [sid(i, j), sid(i, j)]
            head += [sid(i + 1, j), sid(i, j + 1)]
            mu += [0, 1]
            spacing += [h1, h2]
            if kind == "xi":
                tail.append(sid(i, j))
                head.append(sid(i + 1, j + 1))
                mu.append(2)
                spacing.append(float(np.hypot(h1, h2)))

    verts, centers, areas = [], [], []
    for i in range(n1):
        for j in range(n2):
            if kind == "xi":
                verts.append((sid(i, j), sid(i + 1, j), sid(i + 1, j + 1)))
                centers.append([h1 * (i + 2 / 3), h2 * (j + 1 / 3)])
                areas.append(0.5 * h1 * h2)
                verts.append((sid(i, j), sid(i + 1, j + 1), sid(i, j + 1)))
                centers.append([h1 * (i + 1 / 3), h2 * (j + 2 / 3)])
                areas.append(0.5 * h1 * h2)
            else:
                verts.append(
                    (sid(i, j), sid(i + 1, j), sid(i + 1, j + 1), sid(i, j + 1))
                )
                centers.append([h1 * (i + 0.5), h2 * (j + 0.5)])
                areas.append(h1 * h2)

    if kind == "trivial":
        tau = np.arange(n_sites)
    elif kind == "eta":
        tau = np.array([sid(i, -j) for i, j in zip(ii, jj)])
    elif kind == "eta1":
        tau = np.array([sid(-i, j) for i, j in zip(ii, jj)])
    else:
        tau = np.array([sid(i, i - j) for i, j in zip(ii, jj)])

    return dict(
        topology_tag="torus2",
        involution_kind=kind,
        sites=sites,
        link_tail=np.array(tail),
        link_head=np.array(head),
        link_mu=np.array(mu),
        link_spacing=np.array(spacing),
        plaquette_corners=corner_array(verts),
        plaquette_centers=np.array(centers),
        plaquette_areas=np.array(areas),
        involution=tau,
        orientation_flip=(kind != "trivial"),
    )


def sphere2_fields(n_theta, n_phi):
    """Constructor fields of build_sphere2, site by site and cell by cell."""
    n_rings = n_theta - 1
    ht, hp = np.pi / n_theta, 2.0 * np.pi / n_phi
    north, south = 0, 1

    def rid(i, j):
        return 2 + (i - 1) * n_phi + (j % n_phi)

    coords = [(0.0, 0.0), (np.pi, 0.0)]
    for i in range(1, n_rings + 1):
        for j in range(n_phi):
            coords.append((ht * i, hp * j))
    sites = np.array(coords)

    tail, head, mu, spacing = [], [], [], []
    for j in range(n_phi):
        tail.append(north)
        head.append(rid(1, j))
        mu.append(0)
        spacing.append(ht)
    for i in range(1, n_rings):
        for j in range(n_phi):
            tail.append(rid(i, j))
            head.append(rid(i + 1, j))
            mu.append(0)
            spacing.append(ht)
    for j in range(n_phi):
        tail.append(rid(n_rings, j))
        head.append(south)
        mu.append(0)
        spacing.append(ht)
    for i in range(1, n_rings + 1):
        for j in range(n_phi):
            tail.append(rid(i, j))
            head.append(rid(i, j + 1))
            mu.append(1)
            spacing.append(hp)

    verts, centers, areas = [], [], []
    for j in range(n_phi):
        verts.append((north, rid(1, j), rid(1, j + 1)))
        centers.append([ht / 2, hp * (j + 0.5)])
        areas.append(0.5 * ht * hp)
    for i in range(1, n_rings):
        for j in range(n_phi):
            verts.append((rid(i, j), rid(i + 1, j), rid(i + 1, j + 1), rid(i, j + 1)))
            centers.append([ht * (i + 0.5), hp * (j + 0.5)])
            areas.append(ht * hp)
    for j in range(n_phi):
        verts.append((rid(n_rings, j), south, rid(n_rings, j + 1)))
        centers.append([np.pi - ht / 2, hp * (j + 0.5)])
        areas.append(0.5 * ht * hp)

    tau = np.arange(sites.shape[0])
    for i in range(1, n_rings + 1):
        for j in range(n_phi):
            tau[rid(i, j)] = rid(i, -j)

    return dict(
        topology_tag="sphere2",
        involution_kind="reflect",
        sites=sites,
        link_tail=np.array(tail),
        link_head=np.array(head),
        link_mu=np.array(mu),
        link_spacing=np.array(spacing),
        plaquette_corners=corner_array(verts),
        plaquette_centers=np.array(centers),
        plaquette_areas=np.array(areas),
        involution=tau,
        orientation_flip=True,
    )


def corner_array(verts):
    """Vertex cycles as rows padded with -1 at the end, row by row."""
    width = max((len(v) for v in verts), default=0)
    rows = [list(v) + [-1] * (width - len(v)) for v in verts]
    return np.array(rows, dtype=int).reshape(len(verts), width)


def corner_cycles(corners):
    """Rows of a padded corner array as vertex-cycle tuples."""
    return [tuple(c for c in row if c >= 0) for row in corners.tolist()]


def reversed_fields(fields):
    """Constructor fields with every plaquette boundary reversed."""
    verts = [tuple(reversed(v)) for v in corner_cycles(fields["plaquette_corners"])]
    return dict(fields, plaquette_corners=corner_array(verts))


def link_lookup(tail, head):
    """directed_link(a, b) over a dict of the links (tail, head)."""
    directed = {(int(a), int(b)): i for i, (a, b) in enumerate(zip(tail, head))}

    def directed_link(a, b):
        hit = directed.get((a, b))
        if hit is not None:
            return hit, +1
        hit = directed.get((b, a))
        if hit is not None:
            return hit, -1
        raise DomainError(f"({a}, {b}) is not a lattice link")

    return directed_link


def lattice_tables(fields):
    """The tables InvolutiveLattice derives from its constructor fields, link
    by link and plaquette by plaquette, with the same guards in the same
    order."""
    tau, tail, head = fields["involution"], fields["link_tail"], fields["link_head"]
    verts = corner_cycles(fields["plaquette_corners"])
    n_sites, n_links, n_plaq = len(tau), len(tail), len(verts)
    if not np.array_equal(tau[tau], np.arange(n_sites)):
        raise InvalidDiscretizationError("involution is not an exact involution")
    rows = fields["plaquette_corners"].tolist()
    checks = (
        (lambda r: any(c < -1 or c >= n_sites for c in r), "a corner id off the grid"),
        (lambda r: -1 in r[: sum(c >= 0 for c in r)], "a -1 hole before a corner"),
        (lambda r: sum(c >= 0 for c in r) < 3, "fewer than 3 corners"),
    )
    for bad, what in checks:
        for p, row in enumerate(rows):
            if bad(row):
                raise InvalidDiscretizationError(f"plaquette {p} has {what}")
    directed_link = link_lookup(tail, head)

    width = max((len(v) for v in verts), default=0)
    rows = [
        [directed_link(v[a], v[(a + 1) % len(v)]) for a in range(len(v))]
        + [(0, 0)] * (width - len(v))
        for v in verts
    ]
    table = np.array(rows, dtype=int).reshape(n_plaq, width, 2)

    link_img = np.empty(n_links, dtype=int)
    link_sgn = np.empty(n_links, dtype=int)
    for i in range(n_links):
        a, b = int(tau[tail[i]]), int(tau[head[i]])
        try:
            link_img[i], link_sgn[i] = directed_link(a, b)
        except DomainError:
            raise InvalidDiscretizationError(
                f"involution does not map link {i} to a link"
            ) from None

    by_vertexset = {frozenset(v): p for p, v in enumerate(verts)}
    plaq_img = np.empty(n_plaq, dtype=int)
    plaq_sgn = np.empty(n_plaq, dtype=int)
    for p, vs in enumerate(verts):
        mapped = tuple(int(tau[v]) for v in vs)
        q = by_vertexset.get(frozenset(mapped))
        if q is None:
            raise InvalidDiscretizationError(
                f"involution does not map plaquette {p} to a plaquette"
            )
        target = verts[q]
        k = len(target)
        shift = target.index(mapped[0])
        if mapped == tuple(target[(shift + j) % k] for j in range(k)):
            plaq_sgn[p] = +1
        elif mapped == tuple(target[(shift - j) % k] for j in range(k)):
            plaq_sgn[p] = -1
        else:
            raise InvalidDiscretizationError(f"involution scrambles plaquette {p}")
        plaq_img[p] = q

    if n_plaq:
        used = table[:, :, 1] != 0
        links = table[:, :, 0][used]
        net = np.bincount(links, table[:, :, 1][used], minlength=n_links)
        count = np.bincount(links, minlength=n_links)
        if np.any(net != 0) or np.any(count != 2):
            raise InvalidDiscretizationError("plaquettes do not tile a closed surface")

    return dict(
        fixed_sites=np.flatnonzero(tau == np.arange(n_sites)),
        plaquette_links=table[:, :, 0].copy(),
        plaquette_signs=table[:, :, 1].astype(np.int8),
        link_image=link_img,
        link_image_sign=link_sgn,
        plaquette_image=plaq_img,
        plaquette_image_sign=plaq_sgn,
    )


def fixed_loops(lat):
    """Maximal link cycles inside the fixed set, from a neighbour dict filled
    by a walk over every link."""
    fixed = set(lat.fixed_sites.tolist())
    if not fixed:
        return []
    if lat.n_sites == len(fixed) and lat.dim == 2:
        return [rb.torus_row_loop(lat, 0), rb.torus_row_loop(lat, 1)]

    neighbors = {s: [] for s in fixed}
    for a, b in zip(lat.link_tail.tolist(), lat.link_head.tolist()):
        if a in fixed and b in fixed:
            neighbors[a].append(b)
            neighbors[b].append(a)

    loops = []
    seen = set()
    for start in sorted(fixed):
        if start in seen or len(neighbors[start]) != 2:
            continue
        cycle = [start]
        prev, cur = None, start
        while True:
            nxt = [n for n in neighbors[cur] if n != prev]
            if not nxt:
                cycle = None
                break
            prev, cur = cur, nxt[0]
            if cur == start:
                break
            if len(neighbors[cur]) != 2 or cur in seen:
                cycle = None
                break
            cycle.append(cur)
        if cycle and len(cycle) >= 3:
            seen.update(cycle)
            loops.append(rb.LoopPath(tuple(cycle)))
    loops.sort(key=lambda lp: tuple(lat.sites[lp.base]))
    return loops


# -- per-point models ----------------------------------------------------------
# The shipped closed forms one point at a time, as the models evaluated them
# before the block contract; test_block_contract.py compares the block forms.


def degree_k_sphere(k):
    sign, power = (1 if k > 0 else -1), abs(k)

    def evaluate(coords):
        t, phi = float(coords[0]), float(coords[1])
        sin_t = math.sin(t)
        x0 = math.cos(t)
        w = complex(sin_t * math.cos(phi), sign * sin_t * math.sin(phi)) ** power
        return np.array([[x0, w.conjugate()], [w, -x0]], dtype=complex)

    return evaluate


def oscillator_nu(p, coords):
    return p.delta + float(p.f(coords[1])) ** 2


def oscillator_phi(p, coords):
    return float(np.sin(coords[0])) * float(p.g(coords[1]))


def oscillator_grad_nu(p, coords):
    t2 = coords[1]
    return np.array([0.0, 2.0 * float(p.f(t2)) * float(p.df(t2))])


def oscillator_grad_phi(p, coords):
    t1, t2 = coords[0], coords[1]
    return np.array([np.cos(t1) * float(p.g(t2)), np.sin(t1) * float(p.dg(t2))])


def oscillator(p):
    q2, p2, pq_qp = rb.models._ladder_blocks(p.n_basis)

    def evaluate(coords):
        nu = oscillator_nu(p, coords)
        phi = oscillator_phi(p, coords)
        return 0.5 * (p2 + phi * pq_qp + (nu * nu + phi * phi) * q2)

    return evaluate


def oscillator_connection(p, coords):
    coef = -1.0j * (2 * p.level + 1) / (4.0 * oscillator_nu(p, coords))
    return coef * oscillator_grad_phi(p, coords)


def oscillator_curvature_component(p, coords):
    dnu = oscillator_grad_nu(p, coords)
    dphi = oscillator_grad_phi(p, coords)
    coef = 1.0j * (2 * p.level + 1) / (4.0 * oscillator_nu(p, coords) ** 2)
    return coef * (dnu[0] * dphi[1] - dnu[1] * dphi[0])


def oscillator_plaquette_flux(p, corner, h1, h2):
    xs = corner[0] + np.array([0.0, 0.5, 1.0]) * h1
    ys = corner[1] + np.array([0.0, 0.5, 1.0]) * h2
    wts = np.array([1.0, 4.0, 1.0])
    acc = 0.0j
    for i, x in enumerate(xs):
        for k, y in enumerate(ys):
            acc += wts[i] * wts[k] * oscillator_curvature_component(p, (x, y))
    return acc / 36.0 * h1 * h2


def oscillator_reference_section(p, lat, n_nodes=96):
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    bare = weights * np.exp(nodes**2)
    basis = np.stack(
        [rb.hermite_eigenfunction(jn, nodes, 1.0, 0.0).real for jn in range(p.n_basis)]
    )
    ref = np.empty((lat.n_sites, p.n_basis), dtype=complex)
    for s in range(lat.n_sites):
        c = lat.sites[s]
        psi = rb.hermite_eigenfunction(
            p.level, nodes, oscillator_nu(p, c), oscillator_phi(p, c)
        )
        ref[s] = basis @ (bare * psi)
    return ref


def oscillator_oracle(p, u, curv, lat):
    """The CLI's oscillator-oracle deviations, link by link and plaquette by
    plaquette."""
    a = local_connection_from_links(u, lat).a[:, 0, 0]
    mids = lat.link_midpoints()
    dev_conn = max(
        abs(a[lk] - oscillator_connection(p, mids[lk])[lat.link_mu[lk]])
        for lk in range(lat.n_links)
    )
    h1, h2 = lat.grid_spacing
    dev_curv = 0.0
    for q in range(lat.n_plaquettes):
        corner = lat.sites[lat.plaquette_corners[q, 0]]
        target = oscillator_plaquette_flux(p, corner, h1, h2)
        dev_curv = max(dev_curv, abs(curv.f[q, 0, 0] - target) / lat.plaquette_areas[q])
    return {"connection_max_deviation": dev_conn, "curvature_max_deviation": dev_curv}


def mobius_j(coords):
    return np.array([[np.exp(1.0j * coords[0])]])


def mobius_circle_connection(coords):
    return np.array([[[-0.5j]]])


def mobius_pullback_connection(coords):
    return np.array([[[-0.5j]], [[0.0j]]])


def trivial_line_connection(dim):
    return lambda coords: np.zeros((dim, 1, 1), dtype=complex)


def flat_line_connection(a):
    return lambda coords: np.array([[[1.0j * a]]])


def constant(matrix):
    return lambda coords: matrix


def direct_sum_connection(s1, s2):
    m1, m2 = s1.rank, s2.rank

    def connection(coords):
        a1 = s1.connection_at(coords)
        a2 = s2.connection_at(coords)
        out = np.zeros((a1.shape[0], m1 + m2, m1 + m2), dtype=complex)
        out[:, :m1, :m1] = a1
        out[:, m1:, m1:] = a2
        return out

    return connection


def direct_sum(f1, f2):
    """Per-point block-diagonal sum of two N x N families (H or J)."""
    n1, n2 = f1.dimension, f2.dimension

    def evaluate(coords):
        out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        out[:n1, :n1] = f1(coords)
        out[n1:, n1:] = f2(coords)
        return out

    return evaluate


def continuum_holonomy(spec, curve, steps):
    g = np.eye(spec.rank, dtype=complex)
    dt = 1.0 / steps
    for k in range(steps):
        coords, velocity = curve((k + 0.5) * dt)
        a = spec.connection_at(np.atleast_1d(coords))
        pulled = sum(a[mu] * v for mu, v in enumerate(np.atleast_1d(velocity)))
        g = expm(-pulled * dt) @ g
    return g


def gb_equivariance_obstruction(projectors, j, lat):
    worst = 0.0
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        dj = j(lat.sites[b]).conj().T - j(lat.sites[a]).conj().T
        val = frob(projectors[a] @ dj.conj()) / float(lat.link_spacing[lk])
        worst = max(worst, val)
    return worst


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
    return rb.SpectralData(values, vectors, tuple(range(dim)))


def eigensolve_dense_guards(h, lat, bands, j=None):
    """spectral.eigensolve_family with its guards on the dense block stacks:
    the Hermiticity test matrix by matrix, and the Hamiltonian residual of
    SymmetryData.hamiltonian_residual on the whole stack, whatever J is.
    The sectors are gathered block by block and solved after every guard
    has passed by the package's own sector kernel, one _sector_eigh per
    layout, so eigenvalues and kept columns must agree bit for bit.
    A block whose residual is at most RESIDUAL_TOL eps max|H| is solved at
    its orbit representatives only; after the sectors are solved, each
    other site t of it takes, site by site, the eigenvalues of its
    representative tau(t) and the columns J conj(V) there."""
    n, dim = lat.n_sites, h.dimension
    sel = spectral.band_selection(bands, dim)
    values = np.empty((n, dim))
    vectors = np.zeros((n, dim, len(sel)), dtype=complex)
    layouts, residual = {}, None if j is None else 0.0
    skew, mirrored = [], []
    for sites, tau in spectral.orbit_blocks(lat, dim * dim):
        coords = lat.sites[sites]
        stack = h(coords)
        for site, mat in zip(sites.tolist(), stack):
            scale = max(frob(mat), 1.0)
            off = frob(mat - mat.conj().T)
            if not (off <= HERMITICITY_RTOL * scale and np.isfinite(scale)):
                skew.append(site)
        if skew:
            continue
        pattern = (stack != 0).any(axis=0)
        pattern |= pattern.T
        if j is not None:
            res = j.hamiltonian_residual(coords, stack, tau)
            residual = float(np.maximum(residual, res))  # NaN wins
            if res <= spectral.RESIDUAL_TOL * spectral.EPS * np.abs(stack).max():
                reps = [i for i, t in enumerate(tau.tolist()) if t >= i]
                images = [i for i, t in enumerate(tau.tolist()) if t < i]
                mirrored += [(sites[i], sites[tau[i]]) for i in images]
                sites, stack = sites[reps], stack[reps]
        sectors = spectral._sectors(pattern)
        if len(sectors) > 1 and all(tri for _, tri in sectors):
            same = repr([(idx.tolist(), tri) for idx, tri in sectors])
            if same not in layouts:
                layouts[same] = spectral._SectorSites(sectors, n)
            every = np.indices((dim, dim)).reshape(2, -1)  # the whole matrix
            layouts[same].add(sites, stack.reshape(len(sites), -1), every)
        else:
            values[sites], v = np.linalg.eigh(stack)
            vectors[sites] = v[:, :, sel]
    if skew:
        raise ModelError(f"{h.name or 'model'}: non-Hermitian output at site {min(skew)}")
    for rows in layouts.values():
        solved = rows.sites[: rows.count]
        values[solved] = spectral._sector_eigh(rows, sel, vectors.reshape(-1))
    for image, rep in mirrored:
        a, js = vectors[rep].conj(), j.factor(lat.sites[rep : rep + 1])
        values[image] = values[rep]
        vectors[image] = a if js is None else js[0] @ a
    return rb.SpectralData(values, vectors, tuple(sel), residual)


def site_gaps(w, sel):
    """Per-site least |w_i - w_j| over every selected band i and unselected
    band j, or None when either group is empty."""
    rest = [j for j in range(w.shape[1]) if j not in sel]
    if not sel or not rest:
        return None
    return np.abs(w[:, sel][:, :, None] - w[:, rest][:, None, :]).min(axis=(1, 2))


def select_projection(s, band_indices):
    """The projector tensor of the selected bands, (n_sites, N, N)."""
    sel = sorted(set(int(b) for b in band_indices))
    d = site_gaps(s.eigenvalues, sel)
    if d is not None:
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
            raise ValueError(f"projector rank {keep.size} != {m} at site {s}")
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
    return rb.Frame(cols)


def spanning_tree(lat):
    """The lattice's stated tree, read site by site: (child, parent, depth)
    triples, parents first (by depth, then site)."""
    parent = {}
    for site, link in enumerate(lat.tree_links.tolist()):
        if link >= 0:
            ends = (int(lat.link_tail[link]), int(lat.link_head[link]))
            assert site in ends, f"tree link {link} does not end at site {site}"
            parent[site] = ends[0] + ends[1] - site

    def depth(site):
        d = 0
        while site in parent:
            site, d = parent[site], d + 1
        return d

    return sorted(((s, p, depth(s)) for s, p in parent.items()), key=lambda t: t[2])


def smooth_frame_gauge(f, lat):
    cols = f.columns.copy()
    for child, parent, _ in spanning_tree(lat):
        v, _ = polar_unitary(cols[child].conj().T @ cols[parent])
        cols[child] = cols[child] @ v
    return rb.Frame(cols)


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
        res_j = max(
            res_j,
            frob(js.conj().T @ js - eye),
            frob(jt @ js.conj() - j.parity * eye),
        )
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
        js = j(lat.sites[s])
        res = max(
            res,
            frob(js.conj().T @ js - eye),
            frob(j(lat.sites[tau[s]]) @ js.conj() - j.parity * eye),
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
    return rb.SewingField(w, j.parity, worst)


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
    return rb.LinkField(u)


def _grid_len(lat, mu):
    return int(np.round(2.0 * np.pi / float(lat.link_spacing[lat.link_mu == mu][0])))


def link_field_from_connection(source, lat):
    if isinstance(source, rb.LocalConnectionForm):
        m = source.rank
        u = np.empty((lat.n_links, m, m), dtype=complex)
        for lk in range(lat.n_links):
            u[lk] = expm(source.a[lk] * float(lat.link_spacing[lk]))
        return rb.LinkField(u)
    m = source.rank
    u = np.empty((lat.n_links, m, m), dtype=complex)
    for lk in range(lat.n_links):
        a = source.connection_at(lat.link_midpoints()[lk])
        mu = int(lat.link_mu[lk])
        if mu == 2:
            step = a[0] * (2.0 * np.pi / _grid_len(lat, 0)) + a[1] * (
                2.0 * np.pi / _grid_len(lat, 1)
            )
        else:
            step = a[mu] * float(lat.link_spacing[lk])
        u[lk] = expm(step)
    return rb.LinkField(u)


def local_connection_from_links(u, lat):
    a = np.empty((lat.n_links, u.rank, u.rank), dtype=complex)
    for lk in range(lat.n_links):
        a[lk] = principal_log_unitary(u.u[lk], what=f"link {lk}") / float(
            lat.link_spacing[lk]
        )
    return rb.LocalConnectionForm(a)


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
    return rb.LocalConnectionForm(out)


def gauge_transform(u, g, lat):
    g = np.asarray(g, dtype=complex)
    eye = np.eye(u.rank)
    for s in range(g.shape[0]):
        if frob(g[s].conj().T @ g[s] - eye) > 1e-10:
            raise DomainError(f"gauge matrix at site {s} is not unitary")
    out = np.empty_like(u.u)
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        out[lk] = g[a].conj().T @ u.u[lk] @ g[b]
    return rb.LinkField(out)


def equivariance_residual(u, w, lat):
    worst = 0.0
    for lk in range(lat.n_links):
        a, b = int(lat.link_tail[lk]), int(lat.link_head[lk])
        img = link_on(u, int(lat.link_image[lk]), int(lat.link_image_sign[lk]))
        lhs = w.w[a].conj().T @ img @ w.w[b]
        worst = max(worst, frob(lhs - u.u[lk].conj()))
    return worst


# -- curvature -----------------------------------------------------------------


def plaquette_curvature(u, lat):
    m = u.rank
    f = np.empty((lat.n_plaquettes, m, m), dtype=complex)
    for p, links in enumerate(lat.plaquette_links):
        signs = lat.plaquette_signs[p]
        hol = np.eye(m, dtype=complex)
        for link_id, sign in zip(links[signs != 0], signs[signs != 0]):
            hol = hol @ link_on(u, int(link_id), int(sign))
        f[p] = principal_log_unitary(hol, what=f"plaquette {p}")
    return rb.CurvatureField(f)


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


def curvature_parity_check(curv, lat):
    """Parity defect of the flux trace under the involution: max over
    plaquettes of | tr F at tau(p), traversed with the involution-induced
    orientation, minus conj(tr F_p) |.  A small residual certifies the first
    Chern density odd or even as the involution reverses or preserves
    orientation."""
    tr = np.trace(curv.f, axis1=1, axis2=2)
    image, sign = lat.plaquette_image, lat.plaquette_image_sign
    return max(
        (abs(sign[p] * tr[image[p]] - np.conj(tr[p])) for p in range(lat.n_plaquettes)),
        default=0.0,
    )


# -- holonomy ------------------------------------------------------------------


def wilson_loop(u, loop, lat):
    prod = np.eye(u.rank, dtype=complex)
    for link_id, sign in lat.loop_link_ids(loop):
        prod = prod @ link_on(u, link_id, sign)
    return rb.HolonomyResult(prod.conj().T, loop, loop.base)


def map_loop(lat, loop):
    """Image of a loop under the involution, site by site; DomainError
    names the first step of the loop that is not a link."""
    lat.loop_link_ids(loop)
    return rb.LoopPath(tuple(int(lat.involution[s]) for s in loop.sites))


def holonomy_equivariance_check(u, w, loop, lat):
    """|| W(base)^dag hol(tau loop) W(base) - conj(hol(loop)) ||, one
    per-link Wilson loop each for the loop and its image: a residual at
    discretization order certifies that holonomies of the image loop are the
    conjugates of the original ones."""
    hol = wilson_loop(u, loop, lat).hol
    image = wilson_loop(u, map_loop(lat, loop), lat).hol
    wb = w.w[loop.base]
    return frob(wb.conj().T @ image @ wb - hol.conj())


def _round_sign(value, margin=0.3):
    for sign in (+1, -1):
        if abs(value - sign) < margin:
            return sign
    raise IndeterminateHolonomyError(
        f"holonomy determinant {value:+.4f} too far from +/-1 to round; "
        "refine the lattice"
    )


def _half_angle(z):
    return np.exp(0.5j * np.angle(z))


def fixed_loop_holonomies(u, lat, w):
    """One fixed loop at a time: the sewing root at its base alone, then its
    per-link Wilson loop."""
    out = []
    for loop in fixed_loops(lat):
        roots, ev = spectral_maps(w.w[[loop.base]], _half_angle)
        if np.any(np.abs(ev + 1.0) < BRANCH_CUT_GUARD):
            raise BranchCutError("sewing matrix eigenvalue at -1; refine the lattice")
        g = roots[0]
        rotated = g.conj().T @ wilson_loop(u, loop, lat).hol @ g
        sign = _round_sign(float(np.linalg.det(rotated).real))
        hol = rb.HolonomyResult(rotated, loop, loop.base)
        out.append(rb.FixedLoopHolonomy(hol, frob(rotated.imag), sign))
    return out


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
            mid = lat.link_midpoints()[lk]
            row = [f"{mid[0]:.12g}", f"{mid[1] if lat.dim > 1 else 0.0:.12g}",
                   int(lat.link_mu[lk])]
            for r in range(m):
                for c in range(m):
                    row += [f"{a[r, c].real:.12g}", f"{a[r, c].imag:.12g}"]
            writer.writerow(row)
    return skipped


def write_csv(path, header, row_format, columns):
    """The CLI's CSV layout, one `row_format % row` per row over the
    columns' Python values."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        rows = zip(*(col.tolist() for col in columns))
        fh.writelines(row_format % row + "\r\n" for row in rows)


def write_curvature_csv(path, curv, lat):
    """The CLI's curvature.csv, one plaquette at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "berry_curvature"])
        for p in range(lat.n_plaquettes):
            x, y = lat.plaquette_centers[p]
            eigs = np.linalg.eigvals(curv.f[p] / (2.0j * np.pi))
            writer.writerow([f"{x:.12g}", f"{y:.12g}", f"{-eigs.sum().real:.12g}"])


# -- solid-angle degree --------------------------------------------------------


def degree_sum(k, lat):
    """Brouwer degree of the degree-k sphere family's unit d-vector map,
    before rounding: the signed spherical-triangle solid angles over 4*pi,
    plaquette by plaquette and fan triangle (corner 0, a, a + 1) by fan
    triangle, oriented with the lattice."""

    def d_vector(coords):
        x0, x1, x2 = rb.lattice.sphere_embedding(coords)
        w = rb.models._winding_factor(k, x1, x2)
        d = np.array([w.real, w.imag, x0])
        return d / np.linalg.norm(d)

    def solid_angle(a, b, c):
        num = np.dot(a, np.cross(b, c))
        den = 1.0 + np.dot(a, b) + np.dot(b, c) + np.dot(c, a)
        return 2.0 * np.arctan2(num, den)

    total = 0.0
    for verts in corner_cycles(lat.plaquette_corners):
        imgs = [d_vector(lat.sites[v]) for v in verts]
        for a, b in zip(range(1, len(imgs) - 1), range(2, len(imgs))):
            total += solid_angle(imgs[0], imgs[a], imgs[b])
    return total / (4.0 * np.pi)
