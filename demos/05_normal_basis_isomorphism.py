"""The normal-basis isomorphism, and why the scaling matters.

At each prime power the scaled orbit sum of the tautological character
generates the cyclotomic quotient as a unit-group representation, and the
scaling is exactly what makes the levels fit together along restrictions.
Composite levels come from multiplying the prime-power generators.  The
unscaled family generates just as well levelwise, and fails globally.
"""

from cycrep import (
    assemble,
    classifier_report,
    classifying_element,
    normal_basis_report,
    support_of_divisors,
    unscaled_family,
)

print("=== classifier elements at prime powers ===")
for p, k in [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2)]:
    print(f"level {p ** k if k else 1}: quotient coordinates",
          classifying_element(p, k).col(0))

print()
print("=== assembling composite levels multiplicatively ===")
family = assemble(support_of_divisors(60))
for n in [6, 12, 60]:
    print(f"x_{n} as a sparse combination of basis monomials:",
          dict(family.elements[n]))

print()
print("=== the full verification over divisors(60) ===")
report = normal_basis_report(support_of_divisors(60))
print("isomorphism:", report.ok)
for lvl in report.levels:
    print(f"  level {lvl.level:>3}: dimension {lvl.dim:>2},",
          f"invertible: {lvl.invertible}, equivariant: {lvl.equivariant}")

print()
print("=== the unscaled family breaks, visibly ===")
broken = classifier_report(unscaled_family(support_of_divisors(12)))
for square in broken.squares:
    flag = "ok" if square.natural else f"FAILS at unit {square.failing_unit}"
    print(f"  restriction {square.source} -> {square.target}: {flag}")
print("every prime-step restriction picks up a factor of the prime that only")
print("the 1/p^(k-1) scaling can cancel, and the sign fixes the bottom level")
