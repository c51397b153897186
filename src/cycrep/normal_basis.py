"""The normal-basis isomorphism from the regular module onto the transfer
quotient of the representation ring.

At the prime power p^k the quotient is the p^k-th cyclotomic field, and the
scaled orbit sum (-1/p^{k-1}) (X + X^p + ... + X^{p^{k-1}}) is a normal
basis generator whose scaling makes the levelwise identifications commute
with the restriction maps; the sign handles the k = 0 case.  Composite
levels are assembled multiplicatively over the coprime factorization, and
the assembled family classifies a levelwise isomorphism from the regular
module.

The unscaled orbit sum generates the field just as well but fails the
restriction compatibility by a factor of p on every covering pair of
p-power levels; ``classifier_report`` exhibits the failing squares rather
than papering over them.

All verification here runs on the factorwise monomial presentation of the
quotient (sparse, exact), which is what makes supports as large as the
divisors of 2520 tractable.  The orbit sums are integral and the monomial
rewriting has integer coefficients, so each level's classifier is one
rational scale times an integer vector, and the orbit columns and every
check stay in the integers; only the dense level matrices are rational.
Levelwise invertibility is one sparse exact rank of the orbit columns.  The
report carries the level matrices and builds no module; only the functions
returning a ``ModuleMorphism`` do.

Each covering square is checked at the unit 1 alone.  Both levels' orbit
columns are checked equivariant, and inflation and the sum over a fiber of
the unit reduction commute with the unit action, so the square's defect at
a unit g is a lift of g applied to its defect at 1: a square fails at every
unit or at none (``_check_naturality`` spells this out).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cyclic_site import (
    SupportSet,
    factorization,
    is_prime,
    totient,
    units,
)
from .linalg import QMatrix, rank
from .modules import ModuleMorphism, regular_module
from .rep_ring import _reducer, tau_ru_module

_F1 = Fraction(1)

IntSparse = dict[int, int]
Sparse = dict[int, Fraction]


def classifying_element(p: int, k: int) -> QMatrix:
    """Quotient coordinates of the scaled normal-basis generator at p^k.

    For k = 0 this is the unit of the one-dimensional level-1 quotient.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 0 and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    scale, vec = _classifier(p, k, scaled=True)
    return _reducer(p ** k).columns([vec], scale)


def _classifier(p: int, k: int, scaled: bool) -> tuple[Fraction, IntSparse]:
    """The scale and the reduced integer orbit sum X + X^p + ... + X^{p^{k-1}}
    of the generator at p^k; for k = 0, the unit of level 1."""
    if k == 0:
        return _F1, _reducer(1).reduce_sparse({0: 1})
    n = p ** k
    scale = Fraction(-1, p ** (k - 1)) if scaled else _F1
    return scale, _reducer(n).reduce_sparse({pow(p, i, n): 1 for i in range(k)})


class ClassifierFamily(NamedTuple):
    """One quotient element per level, multiplicative over coprime factors.

    The element at level n is ``scales[n]`` (nonzero) times the integer
    vector ``vectors[n]``, keyed by basis exponent in the factorwise
    monomial presentation of the quotient.
    """
    support: SupportSet
    scales: dict[int, Fraction]
    vectors: dict[int, IntSparse]
    scaled: bool = True

    @property
    def elements(self) -> dict[int, Sparse]:
        """The elements as ``Fraction`` vectors, computed afresh on each read."""
        return {n: {e: s * c for e, c in self.vectors[n].items()}
                for n, s in self.scales.items()}


def assemble(support: SupportSet, scaled: bool = True) -> ClassifierFamily:
    """Classifier elements for every level of the support.

    Prime powers get the (optionally scaled) normal-basis generator; a
    composite level is the product of its prime-power generators inflated up,
    taken in increasing prime order, and its scale is the product of their
    scales.  The product does not depend on that order, which the tests
    assert separately.
    """
    scales: dict[int, Fraction] = {}
    vectors: dict[int, IntSparse] = {}
    for n in support:
        red = _reducer(n)
        scale, cur = _F1, None
        for p, k in factorization(n):
            s, local = _classifier(p, k, scaled)
            lifted = red.inflate_from(_reducer(p ** k), local)
            cur = lifted if cur is None else red.mul_sparse(cur, lifted)
            scale *= s
        scales[n] = scale
        vectors[n] = cur if cur is not None else red.reduce_sparse({0: 1})
    return ClassifierFamily(support, scales, vectors, scaled)


# ---------------------------------------------------------------------------
# the induced morphism and its verification
# ---------------------------------------------------------------------------

def _phi_columns(family: ClassifierFamily, n: int) -> dict[int, IntSparse]:
    """Columns of the level-n matrix over its scale: the unit orbit of the
    classifier's integer vector."""
    red = _reducer(n)
    v = family.vectors[n]
    return {g: red.act_unit(g, v) for g in units(n)}


def _columns_to_matrix(n: int, cols: dict[int, IntSparse], scale: Fraction) -> QMatrix:
    return _reducer(n).columns([cols[g] for g in units(n)], scale)


class LevelCheck(NamedTuple):
    level: int
    dim: int
    invertible: bool
    equivariant: bool


class SquareCheck(NamedTuple):
    source: int
    target: int
    natural: bool
    failing_unit: int | None = None


class NormalBasisReport(NamedTuple):
    """The checks of a classifier family and the level matrices it classifies."""
    support: SupportSet
    mats: dict[int, QMatrix]
    levels: list[LevelCheck]
    squares: list[SquareCheck]
    scaled: bool

    @property
    def ok(self) -> bool:
        return (all(l.invertible and l.equivariant for l in self.levels)
                and all(s.natural for s in self.squares))


def _check_equivariance(n: int, cols: dict[int, IntSparse]) -> bool:
    """Whether the action of every unit l sends the column of g to the
    column of l*g, for every g.

    Checked for l over the generators of units(n) only, which is
    equivalent: ``act_unit`` is a group action on the quotient, so if l1
    and l2 move every column to the right place, so does l1*l2 (first l2,
    then l1), and the generators reach every unit.  A single corrupted
    column c_u still fails when units(n) is not trivial: at any generator l
    the column of l^-1*u is sent somewhere other than c_u.
    """
    red = _reducer(n)
    un = units(n)
    for l in un.generators():
        for g in un:
            if red.act_unit(l, cols[g]) != cols[un.mul(l, g)]:
                return False
    return True


def _check_naturality(n: int, m: int, ratio: Fraction,
                      cols_n: dict[int, IntSparse],
                      cols_m: dict[int, IntSparse]) -> int | None:
    """Summation over fibers against inflation, at the unit 1; returns 1
    when the square fails there, else None.

    ``ratio`` is the level-n scale over the level-m scale, a/b in lowest
    terms, so the square commutes at g when a times the inflated column of
    g equals b times the sum of the level-m columns over the fiber of g.

    The unit 1 stands for every unit when both levels' columns are
    equivariant, which ``_check_equivariance`` checks on its own.  Take g
    in units(n) and a lift h of it in units(m).  Inflation is equivariant
    (X^e goes to X^{e*m/n}, and h = g mod n), so the inflated column of g
    is h applied to the inflated column of 1.  The fiber of g is h times
    the fiber of 1, so the fiber sum at g is h applied to the fiber sum at
    1.  The defect at g is therefore h applied to the defect at 1, and h
    acts invertibly: a square fails at every unit or at none.
    """
    a, b = ratio.numerator, ratio.denominator
    lhs = _reducer(m).inflate_from(_reducer(n), cols_n[1])
    rhs: IntSparse = {}
    for h in units(m):
        if (h - 1) % n:
            continue  # outside the fiber of 1
        for e, c in cols_m[h].items():
            v = rhs.get(e, 0) + c
            if v:
                rhs[e] = v
            elif e in rhs:
                del rhs[e]
    if len(lhs) != len(rhs) or any(a * c != b * rhs.get(e, 0) for e, c in lhs.items()):
        return 1
    return None


def _check_rank(n: int, cols: dict[int, IntSparse]) -> bool:
    """Levelwise invertibility: the orbit columns have rank totient(n).

    The columns are read as the rows of a matrix; the rank of the
    transpose is the rank, so no level matrix is built.
    """
    red = _reducer(n)
    index = red.basis_index
    rows = [{index[e]: c for e, c in col.items()} for col in cols.values()]
    return rank(QMatrix.from_row_dicts(rows, red.dim)) == totient(n)


def classifier_report(family: ClassifierFamily) -> NormalBasisReport:
    """The level matrices classified by the family, and every check on them.

    Nothing raises here; scaling bugs (or deliberately unscaled families)
    show up as failing squares in the report.  No module is built.
    """
    support, scales = family.support, family.scales
    all_cols = {n: _phi_columns(family, n) for n in support}
    mats = {n: _columns_to_matrix(n, all_cols[n], scales[n]) for n in support}

    levels = []
    for n in support:
        inv = _check_rank(n, all_cols[n])
        eq = _check_equivariance(n, all_cols[n])
        levels.append(LevelCheck(n, totient(n), inv, eq))
    squares = []
    for n, m in support.covering_pairs():
        bad = _check_naturality(n, m, scales[n] / scales[m], all_cols[n], all_cols[m])
        squares.append(SquareCheck(n, m, bad is None, bad))
    return NormalBasisReport(support, mats, levels, squares, family.scaled)


def _morphism(report: NormalBasisReport) -> ModuleMorphism:
    support = report.support
    return ModuleMorphism(regular_module(support), tau_ru_module(support), report.mats)


def map_from_classifier(family: ClassifierFamily) -> ModuleMorphism:
    """The morphism out of the regular module classified by the family.

    Level n sends the basis unit g to the g-action on the classifier.
    Raises when the result is not a valid morphism, which is the signature
    of an incorrect family (the unscaled one, for instance).  Its modules
    store every unit; for large supports use ``classifier_report``.
    """
    report = classifier_report(family)
    if not (all(l.equivariant for l in report.levels)
            and all(s.natural for s in report.squares)):
        bad = [f"{s.source}->{s.target}" for s in report.squares if not s.natural]
        bad += [f"level {l.level}" for l in report.levels if not l.equivariant]
        raise ValueError(f"classifier family does not define a morphism; failures at: "
                         f"{', '.join(bad)}")
    return _morphism(report)


def normal_basis_iso(support: SupportSet) -> ModuleMorphism:
    """The isomorphism from the regular module onto the transfer quotient.

    Raises if any level matrix fails to be invertible, which would falsify
    the construction rather than the underlying mathematics.  Its modules
    store every unit; for large supports use ``normal_basis_report``.
    """
    report = normal_basis_report(support)
    if not report.ok:
        bad = [l.level for l in report.levels if not (l.invertible and l.equivariant)]
        bad += [f"{s.source}->{s.target}" for s in report.squares if not s.natural]
        raise ValueError(f"normal basis map failed verification at: {bad}")
    return _morphism(report)


def normal_basis_report(support: SupportSet) -> NormalBasisReport:
    return classifier_report(assemble(support, scaled=True))


def unscaled_family(support: SupportSet) -> ClassifierFamily:
    """The classifier family without the -1/p^{k-1} scaling; it generates
    each cyclotomic level but cannot commute with the restrictions."""
    return assemble(support, scaled=False)
