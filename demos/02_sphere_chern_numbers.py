"""Chern numbers on the involutive sphere.

Real bundles over the sphere with the azimuthal reflection are classified
by a single integer.  For the two-band winding families the lower band's
Chern number equals the Brouwer degree k of the unit d-vector map, which
the family states.  The lattice Chern number is exactly quantized: the flux
logarithms telescope to 2*pi*i times an integer.
"""

import math

import numpy as np

import realbloch as rb

lat = rb.build_sphere2(24, 32)
print(f"sphere lattice: {lat.n_sites} sites, {lat.n_plaquettes} plaquettes")
print(f"fixed great circle: {len(rb.fixed_loops(lat)[0])} sites\n")

for k in (-2, -1, 1, 2):
    h, j = rb.model_degree_k_sphere(k)
    rep = rb.verify_hamiltonian_symmetry(h, j, lat)
    s = rb.eigensolve_family(h, lat)
    p = rb.select_projection(s, {0})
    f = rb.frame_from_projection(p)
    u = rb.link_field(f, lat)
    curv = rb.plaquette_curvature(u, lat)
    value, rounded = rb.chern_number(curv, lat)

    # cross-validation with the projector-difference curvature
    direct = rb.gb_curvature_direct(p, lat, f)
    direct_total = math.fsum(rb.chern_weil_density(direct, 1))

    print(f"k = {k:+d}: gap margin {rb.gap_margin(s, {0}):.3f}, "
          f"symmetry residual {rep.hamiltonian_residual:.1e}")
    print(f"  chern via link plaquettes: {value:+.12f}  -> {rounded}")
    print(f"  analytic degree k:         {k:+d}")
    print(f"  chern via P dP dP:         {direct_total:+.6f} (first-order scheme)")
    print()

# The Berry curvature map itself, pole to pole along one meridian strip:
h, j = rb.model_degree_k_sphere(1)
s = rb.eigensolve_family(h, lat)
f = rb.frame_from_projection(rb.select_projection(s, {0}))
curv = rb.plaquette_curvature(rb.link_field(f, lat), lat)
dens = rb.chern_weil_density(curv, 1) / lat.plaquette_areas
rows = {}
for pq in range(lat.n_plaquettes):
    t = lat.plaquette_centers[pq][0]
    rows.setdefault(round(t, 6), []).append(dens[pq])
print("k=1 curvature density by polar angle (should peak at the equator):")
for t in sorted(rows):
    bar = "#" * int(120 * np.mean(rows[t]))
    print(f"  t={t:5.3f}  {np.mean(rows[t]):8.5f}  {bar}")
