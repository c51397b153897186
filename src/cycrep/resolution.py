"""The explicit resolution of the level-1 atom by semifree modules.

The degree-n term is the sum, over strictly increasing n-tuples of primes
from a finite ambient list, of the semifree module at the product of the
tuple.  The differential drops one prime at a time with alternating signs;
levelwise it is the (augmented) simplicial boundary of a simplex on the
prime factors, which is why a weighted insertion operator furnishes a chain
contraction at every level with at least one prime factor.

The contraction is the transpose of the differential divided by omega,
the number of ambient primes dividing the level.  Inserting a prime at
1-based position i is the transpose of dropping the i-th prime, which d
signs (-1)^i, so h inserts each absent prime with the sign of its 1-based
insertion position.  Levelwise, d is the sum over the omega primes p of
the signed drop of p, and its transpose the sum of the signed insertions.
Dropping p after inserting it, plus inserting p after dropping it, is the
identity, while for two different primes the two orders cancel; so
d d^T + d^T d = omega times the identity, which is dh + hd = id.  Flipping to
0-based insertion negates h and the composite with it.  The verification
report records the convention in force.

The cokernels of the differentials carry the witness cocycles: the
projection of the degree-n term onto coker(d_{n+1}) is a nonzero cocycle
that cannot be a coboundary because nothing maps from the degree-(n-1) term
into that cokernel, exhibiting nonvanishing degree-n extensions at
arbitrarily high n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .cyclic_site import SupportSet, is_prime
from .linalg import QMatrix, rank
from .modules import (
    ModuleMorphism,
    OutCycModule,
    atomic_module,
    cokernel_projection,
    direct_sum,
    semifree_module,
    zero_module,
)
from .hom_ext import hom_direct

PrimeTuple = tuple[int, ...]

CONTRACTION_SIGN_CONVENTION = "1-based insertion position"


def _product(t: PrimeTuple) -> int:
    out = 1
    for p in t:
        out *= p
    return out


class PrimeComplex(NamedTuple):
    """The chain modules, differentials and augmentation, built to a degree."""
    primes: tuple[int, ...]
    max_degree: int
    support: SupportSet
    modules: list[OutCycModule]        # degrees 0..max_degree
    diffs: list[ModuleMorphism]        # diffs[k] : degree k+1 -> degree k
    augmentation: ModuleMorphism       # degree 0 -> the level-1 atom
    target: OutCycModule
    tuples: list[list[PrimeTuple]]

    def diff(self, k: int) -> ModuleMorphism:
        """d_k : P_k -> P_{k-1} for 1 <= k <= max_degree."""
        return self.diffs[k - 1]

    def level_tuples(self, k: int, m: int) -> list[PrimeTuple]:
        return [t for t in self.tuples[k] if m % _product(t) == 0]

    def diff_at_level(self, k: int, m: int) -> QMatrix:
        return self.diffs[k - 1].mats[m]


def build_complex(primes: list[int], max_degree: int, support: SupportSet) -> PrimeComplex:
    """Chain modules and differentials over the given ambient primes.

    Degree k sums the semifree modules at the products of k distinct primes;
    the support must contain every such product up to the requested degree.
    The differential drops the i-th prime of a tuple with sign (-1)^i,
    1-based, acting levelwise.  A degree below 1 has no differential and is
    refused before anything else is checked.
    """
    if max_degree < 1:
        raise ValueError("the resolution must be built to degree at least 1")
    if not primes:
        raise ValueError("no ambient primes given")
    bad = [p for p in primes if not is_prime(p)]
    if bad:
        raise ValueError(f"ambient primes must be prime, got {bad}")
    primes = sorted(set(primes))
    for t in combinations(primes, min(max_degree, len(primes))):
        if _product(t) not in support:
            raise ValueError(f"support too small: needs level {_product(t)}")
    all_tuples = [[tuple(t) for t in combinations(primes, k)]
                  for k in range(max_degree + 1)]

    modules = []
    for k in range(max_degree + 1):
        parts = [semifree_module(_product(t), support) for t in all_tuples[k]]
        if parts:
            modules.append(direct_sum(parts, name=f"P{k}"))
        else:
            modules.append(zero_module(support))

    diffs = []
    for k in range(1, max_degree + 1):
        mats = {}
        for m in support:
            src = [t for t in all_tuples[k] if m % _product(t) == 0]
            tgt = [t for t in all_tuples[k - 1] if m % _product(t) == 0]
            tgt_index = {t: i for i, t in enumerate(tgt)}
            mat = QMatrix.zeros(len(tgt), len(src))
            for j, t in enumerate(src):
                for i in range(len(t)):
                    face = t[:i] + t[i + 1:]
                    sign = -1 if (i + 1) % 2 else 1
                    mat[tgt_index[face], j] += sign
            mats[m] = mat
        diffs.append(ModuleMorphism(modules[k], modules[k - 1], mats))

    target = atomic_module(1, 1, support)
    aug_mats = {}
    for m in support:
        aug_mats[m] = (QMatrix.from_rows([[1]]) if m == 1
                       else QMatrix.zeros(0, modules[0].dim(m)))
    augmentation = ModuleMorphism(modules[0], target, aug_mats)
    return PrimeComplex(tuple(primes), max_degree, support, modules, diffs,
                        augmentation, target, all_tuples)


def contraction(cx: PrimeComplex, m: int) -> list[QMatrix]:
    """The maps h_n from degree n to degree n+1 at level m, for m > 1.

    h_n is the transpose of d_{n+1} at level m scaled by 1/omega, omega the
    number of ambient primes dividing m (see the module docstring).
    Degrees beyond the built range would land in unbuilt modules; the list
    covers n = 0 .. max_degree - 1, plus max_degree itself whenever the
    module one degree up is empty at this level, that is omega <= max_degree
    (then h is the zero map there).
    """
    if m == 1:
        raise ValueError("the contraction is defined only at levels with a prime factor")
    omega = sum(1 for p in cx.primes if m % p == 0)
    if omega < 1:
        raise ValueError(f"level {m} has no prime factors among the ambient primes")
    top = cx.max_degree
    out = [cx.diff_at_level(n + 1, m).transpose().scale(Fraction(1, omega))
           for n in range(top)]
    if omega <= top:
        out.append(QMatrix.zeros(0, len(cx.level_tuples(top, m))))
    return out


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""


class ResolutionReport(NamedTuple):
    checks: list[CheckResult]
    convention: str = CONTRACTION_SIGN_CONVENTION

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_resolution(cx: PrimeComplex) -> ResolutionReport:
    """d squared, exactness of the augmented complex, and the contraction
    identity, all levelwise; failures are report entries, not exceptions.
    A level above 1 with no ambient prime factor has no contraction, and
    fails as the check "contraction at level m"."""
    support, max_degree = cx.support, cx.max_degree
    checks: list[CheckResult] = []

    for k in range(2, max_degree + 1):
        ok = all((cx.diff_at_level(k - 1, m) @ cx.diff_at_level(k, m)).is_zero()
                 for m in support)
        checks.append(CheckResult(f"d{k - 1} after d{k} is zero", ok))

    aug_ranks = {m: rank(cx.augmentation.mats[m]) for m in support}
    checks.append(CheckResult(
        "augmentation surjective",
        all(aug_ranks[m] == cx.target.dim(m) for m in support),
        "rank matches the target dimension at every level"))

    # each d_k at each level is eliminated once, for both exactness checks
    # that read its rank
    ranks = {(k, m): rank(cx.diff_at_level(k, m))
             for k in range(1, max_degree + 1) for m in support}
    ok0 = all((cx.augmentation.mats[m] @ cx.diff_at_level(1, m)).is_zero()
              and ranks[1, m] == cx.modules[0].dim(m) - aug_ranks[m] for m in support)
    checks.append(CheckResult("exact at degree 0 (image of d1 = kernel of augmentation)", ok0))

    for k in range(1, max_degree):
        ok = all(ranks[k + 1, m] + ranks[k, m] == cx.modules[k].dim(m) for m in support)
        checks.append(CheckResult(f"exact at degree {k}", ok))

    for m in support:
        if m == 1:
            continue
        if all(m % p for p in cx.primes):
            checks.append(CheckResult(f"contraction at level {m}", False, "no ambient prime"))
            continue
        hs = contraction(cx, m)
        for n in range(len(hs)):
            ident = QMatrix.identity(cx.modules[n].dim(m))
            total = QMatrix.zeros(ident.rows, ident.cols)
            if n + 1 <= cx.max_degree:
                total = total + cx.diff_at_level(n + 1, m) @ hs[n]
            if n >= 1:
                total = total + hs[n - 1] @ cx.diff_at_level(n, m)
            checks.append(CheckResult(f"contraction identity at level {m}, degree {n}",
                                      total == ident))
    return ResolutionReport(checks)


class ExtWitnessReport(NamedTuple):
    degree: int
    hom_below_dim: int
    cocycle_is_zero: bool
    composes_to_zero: bool

    @property
    def nontrivial(self) -> bool:
        """A nonzero cocycle with no morphisms from one degree down is a
        class no coboundary can reach: nonvanishing Ext in this degree."""
        return (self.hom_below_dim == 0 and not self.cocycle_is_zero
                and self.composes_to_zero)


def nontrivial_ext_witness(cx: PrimeComplex, n: int) -> tuple[ExtWitnessReport,
                                                              ModuleMorphism,
                                                              OutCycModule]:
    """The universal cocycle in degree n: the projection onto coker(d_{n+1}).

    Returns the report, the cocycle itself, and the cokernel module.  The
    complex over k distinct primes ends in degree k, and the witness reads
    d_{n+1}, so cx must be built to degree at least n + 1.
    """
    if not 1 <= n <= len(cx.primes):
        raise ValueError(f"the witness degree must be between 1 and the number "
                         f"of distinct ambient primes, {len(cx.primes)}; got {n}")
    if n + 1 > cx.max_degree:
        raise ValueError(f"the witness in degree {n} reads d{n + 1}, but the complex "
                         f"is built to degree {cx.max_degree}")
    d_next = cx.diff(n + 1)
    xi = cokernel_projection(d_next)  # P_n ->> coker(d_{n+1})
    hom_below = hom_direct(cx.modules[n - 1], xi.target)
    report = ExtWitnessReport(
        degree=n,
        hom_below_dim=hom_below.dimension,
        cocycle_is_zero=xi.is_zero(),
        composes_to_zero=xi.compose(d_next).is_zero(),
    )
    return report, xi, xi.target
