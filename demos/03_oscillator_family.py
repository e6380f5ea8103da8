"""The generalized oscillator family: numerics against closed forms.

A frequency/anomaly oscillator over the torus with the theta1 reflection is
a time-reversal symmetric family whose level-n Berry connection and
curvature have closed forms.  This script builds the truncated matrix
family, extracts the level-0 connection from frame overlaps, and measures
the deviation from the closed forms under grid refinement; it ends with the
fixed-loop holonomy signs, which vanish into +1 for this family.
"""

import numpy as np

import realbloch as rb

params = rb.OscillatorParams()  # delta=1, f=sin, g=1, level 0, 40 basis states

for n in (8, 16, 32):
    lat = rb.build_torus2(n, n, "eta1")
    h, j = rb.model_oscillator(params, lat)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})

    # align the frame with the analytic eigenfunction section so that the
    # connection components are comparable pointwise
    ref = rb.oscillator_reference_section(params, lat)
    f = rb.frame_from_projection(p, ref)
    u = rb.link_field(f, lat)

    a = rb.local_connection_from_links(u, lat)
    dev_conn = 0.0
    for lk in range(lat.n_links):
        mid = lat.link_midpoint(lk)
        mu = int(lat.link_mu[lk])
        target = rb.oscillator_analytic_connection(params, mid)[mu]
        dev_conn = max(dev_conn, abs(a.a[lk, 0, 0] - target))

    curv = rb.plaquette_curvature(u, lat)
    h1 = h2 = 2 * np.pi / n
    dev_curv = 0.0
    for pq in range(lat.n_plaquettes):
        corner = lat.sites[lat.plaquette_corners[pq, 0]]
        flux = rb.oscillator_plaquette_flux(params, corner, h1, h2)
        dev_curv = max(dev_curv, abs(curv.f[pq, 0, 0] - flux) / lat.plaquette_areas[pq])

    print(f"{n:3d} x {n:<3d} grid:  connection dev {dev_conn:.2e}   "
          f"curvature dev {dev_curv:.2e}")

print("\n(the deviations shrink at second order in the spacing)\n")

lat = rb.build_torus2(16, 16, "eta1")
h, j = rb.model_oscillator(params, lat)
s = rb.eigensolve_family(h, lat)
p = rb.select_projection(s, {0})
f = rb.frame_from_projection(p, rb.oscillator_reference_section(params, lat))
u = rb.link_field(f, lat)
w = rb.sewing_matrix(f, j, lat)

print("equivariance residual of the frame-overlap connection:",
      f"{rb.equivariance_residual(u, w, lat):.2e}")
for rec in rb.fixed_loop_holonomies(u, lat, w):
    theta1 = lat.sites[rec.holonomy.base][0]
    print(f"fixed loop at theta1 = {theta1:.3f}: sign {rec.sign:+d}, "
          f"reality residual {rec.reality_residual:.1e}")

result = rb.classify_real_bundle(h, j, lat, {0})
print(f"\nclassification: group {result.group}, verdict '{result.verdict}'")
