"""Modules over the site: constructors, validation, kernels and duals.

A module assigns a unit-group representation to every level and an
equivariant restriction matrix to every covering pair.  The constructors
here are the recurring characters of the whole package.
"""

from fractions import Fraction

from cycrep import (
    ModuleMorphism,
    QMatrix,
    atomic_module,
    dual_system,
    free_module,
    morphism_factor,
    random_module,
    regular_module,
    restriction_matrix,
    semifree_module,
    support_of_divisors,
    validate,
)

support = support_of_divisors(12)

print("=== the cast ===")
reg = regular_module(support)
print("regular module dimensions:", reg.dims)
print("restriction 2 -> 4 sums over the fiber:", reg.restriction_step(2, 4).to_rows())

free3 = free_module(3, support)
print("representable at 3, dimensions:", free3.dims)
semi = semifree_module(2, support)
print("one copy of Q above level 2:", semi.dims)
atom = atomic_module(4, 2, support)
print("a two-dimensional atom at level 4:", atom.dims)

print()
print("=== validation is exact (checked on unit-group generators) and returns data ===")
print("violations for the regular module:", validate(reg))
rnd = random_module(support, 42)
print("a seeded random module validates too:", validate(rnd) == [])

print()
print("=== composite restrictions are path independent ===")
print("restriction 1 -> 12 of the regular module:")
print(restriction_matrix(reg, 12, 1).to_rows())

print()
print("=== kernels, images, cokernels with induced structure ===")
fold = ModuleMorphism(
    reg, semifree_module(1, support),
    {n: QMatrix.from_rows([[Fraction(1, reg.dim(n))] * reg.dim(n)]) for n in support})
print("the averaging fold is a morphism:", fold.validate() == [])
fact = morphism_factor(fold)
print("kernel dimensions:", fact.kernel.dims)
print("cokernel is zero (the fold is onto):", fact.cokernel.is_zero())
print("kernel inclusion validates:", fact.kernel_inclusion.validate() == [])

print()
print("=== dualizing flips the arrows ===")
d = dual_system(reg)
print("structure map 4 -> 2 is the transpose of the restriction:",
      d.structure_step(2, 4) == reg.restriction_step(2, 4).transpose())
