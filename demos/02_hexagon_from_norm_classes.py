#!/usr/bin/env python3
"""From unitary orbits to a certified generalised hexagon.

The special unitary group splits the Baer subgenerators with a curve point
into q+1 norm classes; any one class, together with the curve points, is
the line set of a generalised hexagon of order (q,q) on the generators and
affine points.  The certificate is exact ball counting: girth 12,
diameter 6, biregular of degree q+1.  A seeded per-generator mix of the
classes destroys the property, and the certificate then produces an
explicit short cycle as the witness.
"""

from splitcayley.galois import QuadraticField
from splitcayley.hermitian import HermitianSurface
from splitcayley.hexagon import (
    build_hexagon,
    certify_generalized_polygon,
    ordinary_subpolygon_witness,
    shortest_cycle_witness,
)
from splitcayley.unitary import UnitaryAction, verify_class_covering

q = 2
surface = HermitianSurface(QuadraticField.for_q(q))
action = UnitaryAction(surface)

print(f"norm classes at q={q}:")
for mu, keys in sorted(action.classes().items()):
    print(f"  norm {mu}: {len(keys)} subgenerators")

mu = action.field.norm_one_subgroup()[0]
omega = action.omega(mu)
cover = verify_class_covering(surface, omega)
print(f"\ncovering checks for the class of norm {mu}: "
      f"{cover.pencil_checked} pencils, {cover.join_checked} joins, "
      f"ok = {cover.ok}")

geom = build_hexagon(surface, omega)
expected = (q ** 6 - 1) // (q - 1)
cert = certify_generalized_polygon(geom, 6, (expected, expected))
print(f"\nhexagon certificate: {cert.num_points} points, {cert.num_lines} "
      f"lines, order {cert.order}")
print(f"  girth {cert.girth}, diameter {cert.diameter}, "
      f"passed = {cert.passed}")
for k in (3, 4, 5):
    assert ordinary_subpolygon_witness(geom, k) is None
print("  no ordinary triangles, quadrangles or pentagons (witness search)")

mixed = action.mixed_class_omega(seed=7)
bad = build_hexagon(surface, mixed)
bad_cert = certify_generalized_polygon(bad, 6, (expected, expected))
print(f"\nseeded mixed-class control: girth {bad_cert.girth}, "
      f"passed = {bad_cert.passed}")
cycle = shortest_cycle_witness(bad)
print(f"witness cycle of length {len(cycle)}:")
for side, kind, key in cycle:
    print(f"  {side} ({kind}): {key}")
