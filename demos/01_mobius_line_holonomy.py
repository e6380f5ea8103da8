"""The two Real line bundles over the circle with trivial involution.

Over a base where every point is time-reversal fixed there are exactly two
inequivalent Real line bundles.  Curvature cannot tell them apart (both
admit only flat Real connections), but the full-loop holonomy can: +1 for
the product structure, -1 for the twisted one.  This script computes both
holonomies three independent ways and classifies the bundles.
"""

import numpy as np

import realbloch as rb

lat = rb.build_circle(64, "trivial")
loop = rb.circle_loop(lat)
curve = lambda t: ((2 * np.pi * t,), (2 * np.pi,))

for spec in (rb.model_trivial_line("circle-trivial", 1), rb.model_mobius_circle()):
    print(f"--- {spec.name} ---")

    # route 1: lattice Wilson loop of the sampled connection
    u = rb.link_field_from_connection(spec, lat)
    wilson = rb.wilson_loop(u, loop, lat).hol[0, 0]
    print(f"  Wilson loop over {lat.n_sites} links:   {wilson:+.12f}")

    # route 2: path-ordered continuum integration
    cont = rb.continuum_holonomy(spec, curve, steps=64).hol[0, 0]
    print(f"  path-ordered continuum product:  {cont:+.12f}")

    # route 3: the classification pipeline
    result = rb.classify_real_bundle(spec, lat=lat)
    print(f"  classification: group {result.group}, verdict '{result.verdict}'")
    for warning in result.warnings:
        print(f"  warning: {warning}")
    print()

# The twisted structure J(theta) = exp(i theta) admits exactly one Real
# connection; averaging any starting connection lands on it.
jmob = rb.model_mobius_circle().j
rng = np.random.default_rng(0)
start = rb.LocalConnectionForm(1j * rng.normal(size=lat.n_links)[:, None, None])
averaged = rb.average_connection(start, jmob, lat)
print("averaged random connection, worst deviation from -i/2 dtheta:",
      float(np.max(np.abs(averaged.a - (-0.5j)))))
