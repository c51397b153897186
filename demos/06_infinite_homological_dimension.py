"""A resolution that never ends, with receipts.

The level-1 atom resolves by sums of semifree modules indexed by finite
sets of primes.  The complex is exact in every degree (a weighted insertion
operator contracts it levelwise), yet in each degree n the projection onto
the cokernel of the next differential is a cocycle that no coboundary can
reach: nonzero extension classes in every degree, so no finite projective
resolution can exist.
"""

from cycrep import (
    build_complex,
    contraction,
    nontrivial_ext_witness,
    support_of_divisors,
    verify_resolution,
)

support = support_of_divisors(30)
primes = [2, 3, 5]

print("=== the complex over divisors(30) ===")
cx = build_complex(primes, 3, support)
for k, mod in enumerate(cx.modules):
    print(f"degree {k}: tuples {cx.tuples[k]}, dimensions {mod.dims}")

print()
print("=== the differential on the top generator at level 30 ===")
print("d at level 30, degree 3 -> 2:")
for row in cx.diff_at_level(3, 30).to_rows():
    print("  ", row)

print()
print("=== the contraction at level 30 ===")
hs = contraction(cx, 30)
print("h_0 at level 30 (weights 1/3 for three prime factors):")
for row in hs[0].to_rows():
    print("  ", row)

print()
print("=== full verification ===")
report = verify_resolution(cx)
print(f"all {len(report.checks)} checks pass: {report.ok}")
print("sign convention:", report.convention)

print()
print("=== nonvanishing extension witnesses ===")
for n in (1, 2):
    witness, xi, coker = nontrivial_ext_witness(cx, n)
    print(f"degree {n}: morphisms from one degree down: {witness.hom_below_dim},",
          f"cocycle nonzero: {not witness.cocycle_is_zero},",
          f"class nontrivial: {witness.nontrivial}")
print("the same pattern continues in every degree once enough primes join in")
