"""The quantum plane from a twist.

Start with the commutative truncated polynomial algebra k[x, y] cut off
above total degree 3, graded by total degree. Twist it degreewise by the
automorphism y -> 2y. In the twisted product the variables no longer
commute; they q-commute with q = 2, and the checkers confirm that the
twisted structure is still a graded algebra on the nose.
"""

from gradedtwist.fixtures import quantum_plane
from gradedtwist.graded import check_algebra, check_module, regular_module
from gradedtwist.twist import check_twist_condition, twist_algebra, twist_module

algebra, system = quantum_plane()

print("Base algebra: truncated polynomials in x, y up to total degree 3.")
print(f"Component dimensions: { {g: algebra.dim(g) for g in algebra.support()} }")
report = check_algebra(algebra)
print(f"  {report.check}: {report.status}")

report = check_twist_condition(system)
print("Twisting system: sigma(y) = 2y applied d times in degree d.")
print(f"  {report.check}: {report.status}")
for note in report.notes:
    print(f"  note: {note}")
assert report.passed

twisted = twist_algebra(algebra, system)
report = check_algebra(twisted)
print("Twisted algebra:")
print(f"  {report.check}: {report.status}")
assert report.passed

mult = twisted.mult_map(1, 1)
x_times_y = mult.col(1)
y_times_x = mult.col(2)
print(f"  x*y column in degree 2: {[str(v) for v in x_times_y]}")
print(f"  y*x column in degree 2: {[str(v) for v in y_times_x]}")
assert x_times_y == tuple(2 * v for v in y_times_x)
print("  so x*y = 2 (y*x): the quantum plane relation, exactly.")

twisted_reg = twist_module(regular_module(algebra), system)
report = check_module(twisted_reg)
print("Twisted regular module:")
print(f"  {report.check}: {report.status}")
assert report.passed
