"""The rationalized representation ring of cyclic groups.

The level-n value is Q[X]/(X^n - 1) in the monomial basis X^0..X^{n-1},
where X is the tautological one-dimensional character.  The module provides
the ring structure, inflation along the preferred projections, restriction
to subgroups, transfer (induction) from subgroups, the unit-group action,
and the quotient by the ideal of proper transfers.  At a prime power that
ideal is principal on the norm polynomial of the primitive roots, and the
quotient is the corresponding cyclotomic field with its Galois action.

Two quotient presentations coexist:

* ``tau_level`` eliminates the transfer ideal directly (``linalg.rref``
  of the transferred monomials, on the sparse elimination core) and takes
  the non-pivot monomials as the quotient basis (the presentation every
  materialized module uses),
* ``MonomialReducer`` rewrites monomials factorwise through the residue
  decomposition of the exponent, without eliminating the ideal, so it
  scales to levels in the thousands; the large-support normal-basis
  verification runs on it.

At prime powers the two bases coincide (the monomials X^j with
p^{k-1} <= j < p^k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from .cyclic_site import SupportSet, divisors, factorization, units
from .linalg import QMatrix, Rat, RatLike, rat, rref
from .modules import OutCycModule

_F0 = Fraction(0)
_F1 = Fraction(1)


class RUElement:
    """An element of Q[X]/(X^n - 1): level n and n coefficients."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Sequence[RatLike]):
        if level < 1:
            raise ValueError("level must be positive")
        cs = tuple(rat(c) for c in coeffs)
        if len(cs) != level:
            raise ValueError(f"level {level} element needs {level} coefficients, got {len(cs)}")
        self.level = level
        self.coeffs = cs

    @classmethod
    def monomial(cls, level: int, exponent: int, coeff: RatLike = 1) -> "RUElement":
        cs = [Fraction(0)] * level
        cs[exponent % level] = rat(coeff)
        return cls(level, cs)

    @classmethod
    def one(cls, level: int) -> "RUElement":
        return cls.monomial(level, 0)

    @classmethod
    def x(cls, level: int) -> "RUElement":
        """The tautological character X at the given level."""
        if level == 1:
            return cls.one(1)
        return cls.monomial(level, 1)

    def __add__(self, other: "RUElement") -> "RUElement":
        self._check(other)
        return RUElement(self.level, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RUElement") -> "RUElement":
        self._check(other)
        return RUElement(self.level, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "RUElement":
        return RUElement(self.level, [-a for a in self.coeffs])

    def scale(self, c: RatLike) -> "RUElement":
        c = rat(c)
        return RUElement(self.level, [c * a for a in self.coeffs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RUElement):
            return NotImplemented
        return self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.level, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_column(self) -> QMatrix:
        return QMatrix.column(self.coeffs)

    def _check(self, other: "RUElement") -> None:
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                mono = "1" if i == 0 else ("X" if i == 1 else f"X^{i}")
                terms.append(f"{c}*{mono}" if c != 1 or i == 0 else mono)
        return f"RU({self.level}; {' + '.join(terms) or '0'})"


def mul(a: RUElement, b: RUElement) -> RUElement:
    """Cyclic convolution: the product in Q[X]/(X^n - 1)."""
    a._check(b)
    n = a.level
    out = [Fraction(0)] * n
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb:
                out[(i + j) % n] += ca * cb
    return RUElement(n, out)


# ---------------------------------------------------------------------------
# structure matrices and the corresponding element operations
# ---------------------------------------------------------------------------

def restrict_proj_matrix(m: int, n: int) -> QMatrix:
    """Inflation along the projection from level m onto level n (n | m).

    A ring homomorphism: the level-n monomial X^i goes to X^{i*(m/n) mod m}.
    """
    if m % n:
        raise ValueError(f"{n} does not divide {m}")
    out = QMatrix.zeros(m, n)
    step = m // n
    for i in range(n):
        out._e[((i * step) % m) * n + i] = 1
    return out


def restrict_sub_matrix(n: int, d: int) -> QMatrix:
    """Restriction to the subgroup of order d inside level n (d | n):
    X^i goes to X^{i mod d}."""
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    out = QMatrix.zeros(d, n)
    for i in range(n):
        out._e[(i % d) * n + i] = 1
    return out


def transfer_matrix(d: int, n: int) -> QMatrix:
    """Induction from the subgroup of order d up to level n (d | n).

    X^j goes to the sum of the X^i with i congruent to j mod d; as a matrix
    this is the transpose of the subgroup restriction.
    """
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    out = QMatrix.zeros(n, d)
    for i in range(n):
        out._e[i * d + (i % d)] = 1
    return out


def unit_action_matrix(n: int, l: int) -> QMatrix:
    """The ring automorphism X^i -> X^{i*l mod n} for a unit l."""
    if n == 1:
        l = 1
    if gcd(l, n) != 1:
        raise ValueError(f"{l} is not a unit mod {n}")
    out = QMatrix.zeros(n, n)
    for i in range(n):
        out._e[((i * l) % n) * n + i] = 1
    return out


def restrict_proj(m: int, n: int, a: RUElement) -> RUElement:
    if a.level != n:
        raise ValueError("element level does not match the source level")
    if m % n:
        raise ValueError(f"{n} does not divide {m}")
    out = [Fraction(0)] * m
    step = m // n
    for i, c in enumerate(a.coeffs):
        if c:
            out[(i * step) % m] += c
    return RUElement(m, out)


def restrict_sub(n: int, d: int, a: RUElement) -> RUElement:
    if a.level != n:
        raise ValueError("element level does not match the source level")
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    out = [Fraction(0)] * d
    for i, c in enumerate(a.coeffs):
        if c:
            out[i % d] += c
    return RUElement(d, out)


def transfer(d: int, n: int, a: RUElement) -> RUElement:
    if a.level != d:
        raise ValueError("element level does not match the subgroup level")
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    out = [Fraction(0)] * n
    for j, c in enumerate(a.coeffs):
        if c:
            for i in range(j, n, d):
                out[i] += c
    return RUElement(n, out)


def unit_action(n: int, l: int, a: RUElement) -> RUElement:
    if a.level != n:
        raise ValueError("element level does not match")
    if n == 1:
        return a
    if gcd(l, n) != 1:
        raise ValueError(f"{l} is not a unit mod {n}")
    out = [Fraction(0)] * n
    for i, c in enumerate(a.coeffs):
        if c:
            out[(i * l) % n] = c
    return RUElement(n, out)


def transfer_ideal(n: int) -> QMatrix:
    """Columns spanning the ideal generated by all proper transfers.

    One column per transferred monomial tr(X^j) from each proper subgroup;
    multiplying a transfer by any monomial is again a transferred monomial
    from the same subgroup (projection formula), so this set spans the whole
    ideal of products.  At n = 1 there are no proper subgroups and the span
    is zero.
    """
    cols = []
    for d in divisors(n)[:-1]:
        for j in range(d):
            col = [0] * n
            for i in range(j, n, d):
                col[i] = 1
            cols.append(col)
    return QMatrix.from_columns(cols, rows=n)


def crt_iso(n: int, m: int) -> QMatrix:
    """Matrix of the multiplication map from the level-n x level-m tensor
    product onto level n*m, for coprime n and m.

    The pair (X^i, X^j), at lexicographic tensor index i*m + j, multiplies
    out to the monomial X^{i*m + j*n mod nm} after inflating both factors.
    """
    if gcd(n, m) != 1:
        raise ValueError(f"{n} and {m} are not coprime")
    nm = n * m
    out = QMatrix.zeros(nm, nm)
    for i in range(n):
        for j in range(m):
            out._e[((i * m + j * n) % nm) * nm + (i * m + j)] = 1
    return out


# ---------------------------------------------------------------------------
# the quotient by proper transfers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauLevel:
    """Level-n data of the transfer quotient.

    ``projection`` maps the ambient n-dimensional ring onto the quotient and
    kills exactly the transfer ideal; ``section`` embeds the quotient back as
    the span of the basis monomials (the non-pivot columns of the ideal
    elimination, in increasing order).  ``mult_table`` has one column per
    lexicographic pair of quotient basis vectors, holding their product.
    """
    level: int
    ambient_dim: int
    dim: int
    projection: QMatrix
    section: QMatrix
    basis_monomials: tuple[int, ...]
    mult_table: QMatrix

    def project(self, a: RUElement) -> QMatrix:
        if a.level != self.level:
            raise ValueError("level mismatch")
        return self.projection @ a.as_column()

    def mul(self, u: QMatrix, v: QMatrix) -> QMatrix:
        t = self.dim
        out = QMatrix.zeros(t, 1)
        for j1 in range(t):
            a = u[j1, 0]
            if not a:
                continue
            for j2 in range(t):
                b = v[j2, 0]
                if not b:
                    continue
                col = j1 * t + j2
                for i in range(t):
                    w = self.mult_table[i, col]
                    if w:
                        out._e[i] += a * b * w
        return out

    @property
    def one(self) -> QMatrix:
        return self.projection @ RUElement.one(self.level).as_column()


@lru_cache(maxsize=None)
def tau_level(n: int) -> TauLevel:
    """Eliminate the transfer ideal at level n and package the quotient."""
    reduced, pivots = rref(transfer_ideal(n).transpose())
    pivset = set(pivots)
    basis = tuple(i for i in range(n) if i not in pivset)
    t = len(basis)
    proj = QMatrix.zeros(t, n)
    for j, bj in enumerate(basis):
        proj._e[j * n + bj] = _F1
        for r, p in enumerate(pivots):
            v = reduced[r, bj]
            if v:
                proj._e[j * n + p] = -v
    section = QMatrix.zeros(n, t)
    for j, bj in enumerate(basis):
        section._e[bj * t + j] = _F1
    table = QMatrix.zeros(t, t * t)
    for j1 in range(t):
        for j2 in range(t):
            e = (basis[j1] + basis[j2]) % n
            for i in range(t):
                v = proj[i, e]
                if v:
                    table._e[i * (t * t) + (j1 * t + j2)] = v
    return TauLevel(n, n, t, proj, section, basis, table)


class TauRU:
    """The transfer quotient of the representation ring over a support.

    Holds the per-level quotient data and materializes the induced module
    structure: unit actions and inflation maps conjugated through the
    projections and sections.  The section sends quotient basis vector j
    to the monomial X^b, b = basis_monomials[j], and both maps send a
    monomial to a monomial, so column j of the conjugated matrix is the
    projection's column at the image exponent: b*l mod n for the action
    of l, b*(m/n) mod m for the inflation from n to m.
    """

    def __init__(self, support: SupportSet):
        self.support = support
        self.levels = {n: tau_level(n) for n in support}
        dims = {n: self.levels[n].dim for n in support}
        actions = {n: {l: self._gather(n, n, l) for l in units(n)} for n in support}
        restrictions = {(n, m): self._gather(n, m, m // n)
                        for n, m in support.covering_pairs()}
        self.module = OutCycModule(support, dims, actions, restrictions, name="tauRU")

    def _gather(self, n: int, m: int, step: int) -> QMatrix:
        """The level-n to level-m matrix whose column j is the level-m
        projection's column at b*step mod m, b the j-th basis monomial of
        level n."""
        proj = self.levels[m].projection
        basis = self.levels[n].basis_monomials
        out = QMatrix.zeros(proj.rows, len(basis))
        for j, b in enumerate(basis):
            out._e[j::len(basis)] = proj.col(b * step % m)
        return out

    def project(self, a: RUElement) -> QMatrix:
        return self.levels[a.level].project(a)

    def mul(self, n: int, u: QMatrix, v: QMatrix) -> QMatrix:
        return self.levels[n].mul(u, v)

    def inflate(self, m: int, n: int, u: QMatrix) -> QMatrix:
        """Quotient coordinates of the inflation from level n to level m."""
        lv_n, lv_m = self.levels[n], self.levels[m]
        return lv_m.projection @ (restrict_proj_matrix(m, n) @ (lv_n.section @ u))


def tau_ru(support: SupportSet) -> TauRU:
    return TauRU(support)


def tau_ru_module(support: SupportSet) -> OutCycModule:
    """The transfer quotient as a validated-shape module over the support."""
    return TauRU(support).module


# ---------------------------------------------------------------------------
# factorwise monomial rewriting (scales to large levels)
# ---------------------------------------------------------------------------

class MonomialReducer:
    """Rewrites monomials of Q[X]/(X^n - 1) into a quotient basis.

    For each prime power p^k dividing n exactly, a monomial whose exponent
    has residue < p^{k-1} mod p^k is rewritten through the norm-polynomial
    relation of that prime; the rewriting only moves the exponent's p-part,
    so the factors commute and one pass per prime suffices.  The fixed
    monomials (every residue in the upper range) form the quotient basis.
    This presentation agrees with the eliminated one at prime powers and is
    the workhorse for levels too large to eliminate densely.
    """

    __slots__ = ("n", "factors", "basis", "basis_index", "_cache")

    def __init__(self, n: int):
        self.n = n
        self.factors = []
        for p, k in factorization(n):
            self.factors.append((p, p ** k, p ** (k - 1), n // p))
        basis = [e for e in range(n)
                 if all(e % pk >= bound for _, pk, bound, _ in self.factors)]
        self.basis = tuple(basis)
        self.basis_index = {e: i for i, e in enumerate(basis)}
        self._cache: dict[int, dict[int, int]] = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce_exponent(self, e: int) -> dict[int, int]:
        """Image of the monomial X^e as +-1 combinations of basis monomials."""
        hit = self._cache.get(e)
        if hit is not None:
            return hit
        terms = {e: 1}
        for p, pk, bound, n_over_p in self.factors:
            expanded: dict[int, int] = {}
            for exp, c in terms.items():
                if exp % pk >= bound:
                    expanded[exp] = expanded.get(exp, 0) + c
                else:
                    for l in range(1, p):
                        e2 = (exp + l * n_over_p) % self.n
                        expanded[e2] = expanded.get(e2, 0) - c
            terms = expanded
        self._cache[e] = terms
        return terms

    def reduce_sparse(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Reduce a sparse ambient vector; keys are basis exponents."""
        out: dict[int, Fraction] = {}
        for e, c in vec.items():
            if not c:
                continue
            for b, s in self.reduce_exponent(e % self.n).items():
                v = out.get(b, _F0) + (c if s == 1 else -c if s == -1 else c * s)
                if v:
                    out[b] = v
                elif b in out:
                    del out[b]
        return out

    def act_unit(self, l: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Unit action on a reduced vector: scale exponents, reduce again."""
        return self.reduce_sparse({(e * l) % self.n: c for e, c in vec.items()})

    def inflate_from(self, sub: "MonomialReducer", vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Inflation of a reduced level-d vector up to this level (d | n)."""
        step = self.n // sub.n
        return self.reduce_sparse({(e * step) % self.n: c for e, c in vec.items()})

    def mul_sparse(self, a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        prod: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % self.n
                prod[e] = prod.get(e, _F0) + c1 * c2
        return self.reduce_sparse(prod)

    def ideal_generators_sparse(self) -> list[dict[int, Fraction]]:
        """The proper-transfer generators from maximal subgroups, sparse."""
        out = []
        for p, _, _, n_over_p in self.factors:
            for j in range(n_over_p):
                out.append({(j + i * n_over_p) % self.n: _F1 for i in range(p)})
        return out
