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
divisors of 2520 tractable.  Levelwise invertibility is one sparse exact
rank of the orbit columns.  The report carries the level matrices and
builds no module; only the functions returning a ``ModuleMorphism`` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclic_site import (
    SupportSet,
    factorization,
    is_prime,
    totient,
    unit_reduction,
    units,
)
from .linalg import QMatrix, SparseMatrix, rank
from .modules import ModuleMorphism, regular_module
from .rep_ring import _reducer, tau_ru_module

_F0 = Fraction(0)
_F1 = Fraction(1)

Sparse = dict[int, Fraction]


def classifying_element(p: int, k: int) -> QMatrix:
    """Quotient coordinates of the scaled normal-basis generator at p^k.

    For k = 0 this is the unit of the one-dimensional level-1 quotient.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > 0 and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _reducer(p ** k if k else 1).columns([_classifier_sparse(p, k, scaled=True)])


def _classifier_sparse(p: int, k: int, scaled: bool) -> Sparse:
    if k == 0:
        return dict(_reducer(1).reduce_sparse({0: _F1}))
    n = p ** k
    coeff = Fraction(-1, p ** (k - 1)) if scaled else _F1
    vec = {pow(p, i, n): coeff for i in range(k)}
    # the exponents p^0 .. p^{k-1} are distinct below p^k, so no merging
    assert len(vec) == k
    return _reducer(n).reduce_sparse(vec)


@dataclass
class ClassifierFamily:
    """One quotient element per level, multiplicative over coprime factors.

    Elements are sparse vectors keyed by basis exponent in the factorwise
    monomial presentation of the quotient.
    """
    support: SupportSet
    elements: dict[int, Sparse]
    scaled: bool = True

    def column(self, n: int) -> QMatrix:
        return _reducer(n).columns([self.elements[n]])


def assemble(support: SupportSet, scaled: bool = True) -> ClassifierFamily:
    """Classifier elements for every level of the support.

    Prime powers get the (optionally scaled) normal-basis generator; a
    composite level is the product of its prime-power generators inflated up,
    taken in increasing prime order.  The product does not depend on that
    order, which the tests assert separately.
    """
    elements: dict[int, Sparse] = {}
    for n in support:
        red = _reducer(n)
        if n == 1:
            elements[1] = red.reduce_sparse({0: _F1})
            continue
        cur: Sparse | None = None
        for p, k in factorization(n):
            local = _classifier_sparse(p, k, scaled)
            lifted = red.inflate_from(_reducer(p ** k), local)
            cur = lifted if cur is None else red.mul_sparse(cur, lifted)
        elements[n] = cur if cur is not None else red.reduce_sparse({0: _F1})
    return ClassifierFamily(support, elements, scaled)


# ---------------------------------------------------------------------------
# the induced morphism and its verification
# ---------------------------------------------------------------------------

def _phi_columns(family: ClassifierFamily, n: int) -> dict[int, Sparse]:
    """Columns of the level-n matrix: the unit orbit of the classifier."""
    red = _reducer(n)
    x = family.elements[n]
    return {g: red.act_unit(g, x) for g in units(n)}


def _columns_to_matrix(n: int, cols: dict[int, Sparse]) -> QMatrix:
    return _reducer(n).columns([cols[g] for g in units(n)])


@dataclass
class LevelCheck:
    level: int
    dim: int
    invertible: bool
    equivariant: bool


@dataclass
class SquareCheck:
    source: int
    target: int
    natural: bool
    failing_unit: int | None = None


@dataclass
class NormalBasisReport:
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


def _check_equivariance(n: int, cols: dict[int, Sparse]) -> bool:
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


def _check_naturality(family: ClassifierFamily, n: int, m: int,
                      cols_n: dict[int, Sparse],
                      cols_m: dict[int, Sparse]) -> int | None:
    """Summation over fibers against inflation; returns a failing unit."""
    red_n, red_m = _reducer(n), _reducer(m)
    _, fibers = unit_reduction(m, n)
    for g in units(n):
        lhs = red_m.inflate_from(red_n, cols_n[g])
        rhs: Sparse = {}
        for gt in fibers[g]:
            for e, c in cols_m[gt].items():
                v = rhs.get(e, _F0) + c
                if v:
                    rhs[e] = v
                elif e in rhs:
                    del rhs[e]
        if lhs != rhs:
            return g
    return None


def _check_rank(n: int, cols: dict[int, Sparse]) -> bool:
    """Levelwise invertibility: the orbit columns have rank totient(n).

    The columns are read as the rows of a sparse matrix; the rank of the
    transpose is the rank, so no dense level matrix is built.
    """
    red = _reducer(n)
    index = red.basis_index
    rows = [{index[e]: c for e, c in col.items()} for col in cols.values()]
    return rank(SparseMatrix(len(rows), red.dim, rows)) == totient(n)


def classifier_report(family: ClassifierFamily) -> NormalBasisReport:
    """The level matrices classified by the family, and every check on them.

    Nothing raises here; scaling bugs (or deliberately unscaled families)
    show up as failing squares in the report.  No module is built.
    """
    support = family.support
    all_cols = {n: _phi_columns(family, n) for n in support}
    mats = {n: _columns_to_matrix(n, all_cols[n]) for n in support}

    levels = []
    for n in support:
        inv = _check_rank(n, all_cols[n])
        eq = _check_equivariance(n, all_cols[n])
        levels.append(LevelCheck(n, totient(n), inv, eq))
    squares = []
    for n, m in support.covering_pairs():
        bad = _check_naturality(family, n, m, all_cols[n], all_cols[m])
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
