"""Torsion invariants on the torus and the moduli of flat Real connections.

The theta2-conjugation torus mixes a free invariant (the Chern number) with
a torsion pair: the holonomy signs around the two fixed-point circles.  The
pulled-back twisted line is flat, so curvature sees nothing, yet the signs
detect it.  On the reflection circle, flat Real connections modulo gauge
form a full circle R/Z of inequivalent choices, even though the bundle
itself is trivial; the holonomy separates them.
"""

import realbloch as rb

# -- torsion pair on the conjugation torus --------------------------------

lat = rb.build_torus2(24, 24, "eta")
loops = rb.fixed_loops(lat)
print("fixed loops at theta2 =", [f"{lat.sites[lp.base][1]:.3f}" for lp in loops])

for spec in (rb.model_trivial_line("torus2-eta", 2), rb.model_mobius_pullback_torus()):
    result = rb.classify_real_bundle(spec, lat=lat)
    print(f"\n{spec.name}: group {result.group}, verdict '{result.verdict}'")
    for warning in result.warnings:
        print(f"  warning: {warning}")

# resolution doubling leaves the verdict untouched
fine = rb.classify_real_bundle(
    rb.model_mobius_pullback_torus(), lat=rb.build_torus2(48, 48, "eta")
)
print("\nverdict at doubled resolution:", fine.verdict)

# -- flat moduli on the reflection circle ----------------------------------

print("\nflat Real connections i*a*dtheta on the reflection circle:")
lat1 = rb.build_circle(64, "reflection")
for a in (0.0, 0.25, 0.5, 0.75, 1.0):
    hol = rb.flat_moduli_holonomy(a)
    via_links = rb.wilson_loop(
        rb.link_field_from_connection(rb.model_flat_line(a), lat1),
        rb.circle_loop(lat1),
        lat1,
    ).hol[0, 0]
    print(f"  a = {a:4.2f}: holonomy {hol:+.4f}  (lattice route {via_links:+.4f})")
print("a and a+1 share a holonomy: gauge equivalent; the moduli is R/Z")
