"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them) and
enforces its stated tolerance and runtime budget.  Expected values are
either analytically forced, certified by an independent oracle (Brouwer
degree via solid angles, closed-form line integrals), or exactly quantized.
"""

import cmath
import time

import numpy as np

import realbloch as rb


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def timed(budget):
    class Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, f"runtime {self.elapsed:.1f}s over budget"

    return Timer()


def sphere_pipeline(k, n_theta, n_phi, bands={0}):
    lat = rb.build_sphere2(n_theta, n_phi)
    h, j = rb.model_degree_k_sphere(k)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, bands)
    f = rb.frame_from_projection(p)
    u = rb.link_field(f, lat)
    w = rb.sewing_matrix(f, j, lat)
    return lat, p, f, u, w


def oscillator_pipeline(n):
    params = rb.OscillatorParams()
    lat = rb.build_torus2(n, n, "eta1")
    h, j = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    ref = rb.oscillator_reference_section(params, lat)
    f = rb.frame_from_projection(p, ref)
    u = rb.link_field(f, lat)
    w = rb.sewing_matrix(f, j, lat)
    return params, lat, p, f, u, w


def test_01_mobius_holonomy():
    with timed(1.0):
        lat = rb.build_circle(64, "trivial")
        spec = rb.model_mobius_circle()
        hol = rb.wilson_loop(
            rb.link_field_from_connection(spec, lat), rb.circle_loop(lat), lat
        ).hol[0, 0]
        err_lattice = abs(hol - (-1.0))
        curve = lambda t: ((2 * np.pi * t,), (2 * np.pi,))
        hol_cont = rb.continuum_holonomy(spec, curve, 64).hol[0, 0]
        err_cont = abs(hol_cont - (-1.0))
    report(
        "01 mobius holonomy -1",
        err_lattice <= 1e-9 and err_cont <= 1e-3,
        f"lattice err {err_lattice:.1e}, continuum err {err_cont:.1e}",
    )


def test_02_trivial_holonomy():
    with timed(1.0):
        lat = rb.build_circle(64, "trivial")
        u = rb.link_field_from_connection(
            rb.model_trivial_line("circle-trivial", 1), lat
        )
        hol = rb.wilson_loop(u, rb.circle_loop(lat), lat).hol[0, 0]
    report("02 trivial holonomy +1", abs(hol - 1.0) <= 1e-9, f"err {abs(hol-1):.1e}")


def test_03_sphere_chern_numbers():
    ok = True
    details = []
    for k in (-2, -1, 1, 2):
        with timed(10.0):
            lat, p, f, u, w = sphere_pipeline(k, 24, 32)
            value, rounded = rb.chern_number(rb.plaquette_curvature(u, lat), lat)
            oracle = rb.degree_oracle(k, lat)
        ok = ok and abs(value - oracle) <= 1e-9 and oracle == k == rounded
        details.append(f"k={k}: {value:+.2e} vs oracle {oracle}")
    report("03 sphere Chern = degree oracle = k", ok, "; ".join(details))


def test_04_oscillator_oracle_match():
    with timed(60.0):
        devs = {}
        for n in (16, 32):
            params, lat, p, f, u, w = oscillator_pipeline(n)
            a = rb.local_connection_from_links(u, lat)
            dc = 0.0
            for lk in range(lat.n_links):
                mid = lat.link_midpoint(lk)
                mu = int(lat.link_mu[lk])
                target = rb.oscillator_analytic_connection(params, mid)[mu]
                dc = max(dc, abs(a.a[lk, 0, 0] - target))
            curv = rb.plaquette_curvature(u, lat)
            h1 = h2 = 2 * np.pi / n
            df = 0.0
            for pq in range(lat.n_plaquettes):
                corner = lat.sites[lat.plaquette_corners[pq, 0]]
                flux = rb.oscillator_plaquette_flux(params, corner, h1, h2)
                df = max(df, abs(curv.f[pq, 0, 0] - flux) / lat.plaquette_areas[pq])
            devs[n] = (dc, df)
    ok = (
        devs[16][0] <= 5e-3
        and devs[16][1] <= 5e-3
        and devs[32][0] <= 0.6 * devs[16][0]
        and devs[32][1] <= 0.6 * devs[16][1]
    )
    report(
        "04 oscillator connection/curvature vs closed form",
        ok,
        f"conn {devs[16][0]:.2e}->{devs[32][0]:.2e}, "
        f"curv {devs[16][1]:.2e}->{devs[32][1]:.2e}",
    )


def test_05_oscillator_fixed_loop_signs():
    params, lat, p, f, u, w = oscillator_pipeline(16)
    recs = rb.fixed_loop_holonomies(u, lat, w)
    signs = [r.sign for r in recs]
    residuals = [r.reality_residual for r in recs]
    ok = signs == [1, 1] and all(r <= 1e-2 for r in residuals)
    report(
        "05 oscillator fixed-loop signs (+1,+1)",
        ok,
        f"signs {signs}, residuals {[f'{r:.1e}' for r in residuals]}",
    )


def test_06_torus_mobius_pullback():
    spec = rb.model_mobius_pullback_torus()
    results = []
    for n in (16, 32):
        lat = rb.build_torus2(n, n, "eta")
        res = rb.classify_real_bundle(spec, lat=lat)
        value = res.diagnostics["chern_value"]
        results.append((res.group, tuple(res.free), tuple(res.torsion), value))
    ok = all(
        g == "Z2 + Z" and fr == (0,) and to == (-1, -1) and abs(v) <= 1e-9
        for g, fr, to, v in results
    ) and results[0][:3] == results[1][:3]
    report("06 torus pullback (Z2+Z; 0; (-1,-1)) stable", ok, f"{results[0]}")


def product_pipeline(spec, lat):
    u = rb.link_field_from_connection(spec, lat)
    w = rb.SewingField(spec.j(lat.sites), +1, 0.0)
    # standard-basis frames: every band kept, so P = 1
    proj = rb.ProjectionFamily(
        np.tile(np.eye(spec.rank, dtype=complex), (lat.n_sites, 1, 1)),
        tuple(range(spec.rank)),
    )
    return lat, proj, None, u, w


def test_07_equivariance_suite():
    details = []
    ok = True
    # every shipped constant-J model, at two resolutions each
    for tag, build in (
        ("sphere", lambda s: sphere_pipeline(1, 12 * s, 16 * s)),
        ("sphere-k-2", lambda s: sphere_pipeline(-2, 12 * s, 16 * s)),
        ("oscillator", lambda s: oscillator_pipeline(16 * s)[1:]),
        (
            "trivial-line",
            lambda s: product_pipeline(
                rb.model_trivial_line("circle-reflection", 1),
                rb.build_circle(32 * s, "reflection"),
            ),
        ),
        (
            "flat-line",
            lambda s: product_pipeline(
                rb.model_flat_line(0.3), rb.build_circle(32 * s, "reflection")
            ),
        ),
    ):
        per_scale = {}
        for scale in (1, 2):
            lat, p, f, u, w = build(scale)
            hmax = float(np.max(lat.link_spacing))
            if tag.startswith("sphere"):
                # one symmetric latitude plus two cell loops the reflection
                # genuinely moves
                n_phi = 16 * scale
                rid = lambda i, j: 2 + (i - 1) * n_phi + (j % n_phi)
                cell = lambda r, j: rb.LoopPath(
                    (rid(r, j), rid(r + 1, j), rid(r + 1, j + 1), rid(r, j + 1))
                )
                loops = [rb.latitude_loop(lat, 3), cell(2, 3), cell(6, 9)]
            elif tag == "oscillator":
                # theta2 columns at reflected theta1 offsets, plus one row
                loops = [
                    rb.torus_row_loop(lat, 1, 2),
                    rb.torus_row_loop(lat, 1, 5),
                    rb.torus_row_loop(lat, 0, 0),
                ]
            else:
                full = rb.circle_loop(lat)
                loops = [full, rb.LoopPath(full.sites + full.sites), full.reversed()]
            obstruction = (
                rb.gb_equivariance_obstruction(p, rb.SymmetryData.identity(p.columns.shape[1]), lat)
            )
            res = rb.equivariance_residual(u, w, lat)
            hol_res = max(
                rb.holonomy_equivariance_check(u, w, lp, lat) for lp in loops
            )
            ok = ok and obstruction == 0.0 and res <= 1e-2 * hmax
            ok = ok and hol_res <= 1e-2 * hmax
            per_scale[scale] = res
            details.append(f"{tag}x{scale}: eq {res:.1e}, hol {hol_res:.1e}")
        # halving under refinement, with a roundoff floor: the discrete
        # equivariance is exact for constant J, so both sit at noise level
        ok = ok and per_scale[2] <= max(0.55 * per_scale[1], 1e-11)
    report("07 equivariance property suite", ok, "; ".join(details))


def test_08_curvature_parity():
    details = []
    ok = True
    for tag, build in (
        ("sphere", lambda s: sphere_pipeline(1, 12 * s, 16 * s)),
        ("oscillator", lambda s: oscillator_pipeline(16 * s)[1:]),
    ):
        res_by_scale = {}
        for scale in (1, 2):
            lat, p, f, u, w = build(scale)
            hmax = float(np.max(lat.link_spacing))
            curv = rb.plaquette_curvature(u, lat)
            res = rb.curvature_parity_check(curv, lat)
            ok = ok and res <= 1e-2 * hmax
            res_by_scale[scale] = res
            details.append(f"{tag}x{scale}: {res:.1e}")
        ok = ok and res_by_scale[2] <= max(0.55 * res_by_scale[1], 1e-11)
    report("08 curvature parity", ok, "; ".join(details))


def test_09_gauge_invariance():
    rng = np.random.default_rng(1234)
    lat, p, f, u, w = sphere_pipeline(1, 12, 16)
    v0, _ = rb.chern_number(rb.plaquette_curvature(u, lat), lat)
    loops = [rb.latitude_loop(lat, r) for r in (2, 5, 8)] + rb.fixed_loops(lat)
    traces0 = [rb.wilson_loop(u, lp, lat).trace for lp in loops]
    worst_chern = 0.0
    worst_trace = 0.0
    for _ in range(100):
        g = np.exp(1j * rng.uniform(0, 2 * np.pi, lat.n_sites))[:, None, None]
        u2 = rb.gauge_transform(u, g, lat)
        v1, _ = rb.chern_number(rb.plaquette_curvature(u2, lat), lat)
        worst_chern = max(worst_chern, abs(v1 - v0))
        for lp, t0 in zip(loops, traces0):
            worst_trace = max(
                worst_trace, abs(rb.wilson_loop(u2, lp, lat).trace - t0)
            )
    ok = worst_chern <= 1e-12 and worst_trace <= 1e-12
    report(
        "09 gauge invariance over 100 transforms",
        ok,
        f"chern drift {worst_chern:.1e}, trace drift {worst_trace:.1e}",
    )


def test_10_flat_moduli():
    rng = np.random.default_rng(99)
    lat = rb.build_circle(64, "reflection")
    curve = lambda t: ((2 * np.pi * t,), (2 * np.pi,))
    ok = True
    samples = rng.uniform(0.0, 1.0, 10)
    for a in samples:
        target = cmath.exp(-2j * cmath.pi * a)
        ok = ok and abs(rb.flat_moduli_holonomy(a) - target) <= 1e-12
        ok = ok and abs(rb.flat_moduli_holonomy(a + 1.0) - target) <= 1e-12
        # independent route: integrate the flat connection itself
        hol = rb.continuum_holonomy(rb.model_flat_line(a), curve, 64).hol[0, 0]
        ok = ok and abs(hol - target) <= 1e-12
        # and the lattice route
        u = rb.link_field_from_connection(rb.model_flat_line(a), lat)
        wil = rb.wilson_loop(u, rb.circle_loop(lat), lat).hol[0, 0]
        ok = ok and abs(wil - target) <= 1e-12
    # distinct parameters in (0,1) hit distinct holonomies
    hols = [rb.flat_moduli_holonomy(a) for a in samples]
    for i in range(len(samples)):
        for k in range(i + 1, len(samples)):
            if abs(samples[i] - samples[k]) > 1e-9:
                ok = ok and abs(hols[i] - hols[k]) > 1e-12
    report("10 flat moduli holonomy", ok)


def test_11_averaging_real_condition():
    rng = np.random.default_rng(42)
    lat = rb.build_circle(16, "trivial")
    j_winding = rb.model_mobius_circle().j
    j_identity = rb.SymmetryData.identity(1)
    ok = True
    worst = 0.0
    for trial in range(20):
        j = j_winding if trial % 2 else j_identity
        vals = 1j * rng.normal(size=lat.n_links)[:, None, None]
        a = rb.LocalConnectionForm(vals)
        avg = rb.average_connection(a, j, lat)
        again = rb.average_connection(avg, j, lat)
        worst = max(worst, float(np.max(np.abs(again.a - avg.a))))
        # rank-one over the trivial involution: the average is exactly the
        # canonical J-term (zero for the identity twist)
        target = -0.5j if trial % 2 else 0.0
        ok = ok and np.allclose(avg.a, target, atol=1e-12)
    ok = ok and worst <= 1e-10
    report("11 averaged connections are Real fixed points", ok, f"refix {worst:.1e}")


def test_12_whitney_additivity():
    with timed(10.0):
        lat = rb.build_circle(32, "trivial")
        mob_plus_trivial = rb.direct_sum_specs(
            rb.model_mobius_circle(), rb.model_trivial_line("circle-trivial", 1)
        )
        res = rb.classify_real_bundle(mob_plus_trivial, lat=lat)
        sign_ok = res.torsion == [-1]  # (-1) * (+1)

        lat2 = rb.build_sphere2(12, 16)
        h, j = rb.direct_sum_hamiltonians(
            rb.model_degree_k_sphere(1), rb.model_degree_k_sphere(-2)
        )
        res2 = rb.classify_real_bundle(h, j, lat2, {0, 1})
        chern_ok = res2.free == [-1]
    report(
        "12 Whitney additivity",
        sign_ok and chern_ok,
        f"sign product {res.torsion}, chern sum {res2.free}",
    )
