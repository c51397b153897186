"""The rationalized representation ring of cyclic groups.

The level-n value is Q[X]/(X^n - 1) in the monomial basis X^0..X^{n-1},
where X is the tautological one-dimensional character.  The module provides
the ring structure, inflation along the preferred projections, restriction
to subgroups, transfer (induction) from subgroups, the unit-group action,
and the quotient by the ideal of proper transfers.  At a prime power that
ideal is principal on the norm polynomial of the primitive roots, and the
quotient is the corresponding cyclotomic field with its Galois action.

The quotient has one presentation.  ``MonomialReducer`` rewrites each
monomial factorwise through the residue decomposition of its exponent,
without eliminating the ideal, so it scales to levels in the thousands;
the fixed monomials are the quotient basis.  ``tau_action`` and
``tau_restriction`` read the level matrices from its columns, and
``tau_ru_module`` stores them for every unit and covering pair.

At level d the quotient is Q(zeta_d), so ``MonomialReducer`` is the one
arithmetic of cyclotomic fields: it also serves the block projectives
e P_n = Q(zeta_d) of ``hom_ext``'s minimal resolution, in its basis.

``tau_level`` eliminates the ideal directly (``linalg.sparse_kernel`` of
the transferred monomials, whose reduced kernel vectors are the rows of the
projection) and is kept only as an independent count of the quotient
dimension.  At prime powers its basis coincides with the reduced one (the
monomials X^j with p^{k-1} <= j < p^k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Sequence

from .cyclic_site import SupportSet, divisors, factorization, units
from .linalg import Entry, QMatrix, RatLike, hstack, rat, sparse_kernel
from .modules import OutCycModule

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
        out[(i * step) % m, i] = 1
    return out


def restrict_sub_matrix(n: int, d: int) -> QMatrix:
    """Restriction to the subgroup of order d inside level n (d | n):
    X^i goes to X^{i mod d}."""
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    out = QMatrix.zeros(d, n)
    for i in range(n):
        out[i % d, i] = 1
    return out


def transfer_matrix(d: int, n: int) -> QMatrix:
    """Induction from the subgroup of order d up to level n (d | n).

    X^j goes to the sum of the X^i with i congruent to j mod d: the
    transpose of the subgroup restriction.
    """
    return restrict_sub_matrix(n, d).transpose()


def unit_action_matrix(n: int, l: int) -> QMatrix:
    """The ring automorphism X^i -> X^{i*l mod n} for a unit l."""
    if n == 1:
        l = 1
    if gcd(l, n) != 1:
        raise ValueError(f"{l} is not a unit mod {n}")
    out = QMatrix.zeros(n, n)
    for i in range(n):
        out[(i * l) % n, i] = 1
    return out


def restrict_proj(m: int, n: int, a: RUElement) -> RUElement:
    if a.level != n:
        raise ValueError("element level does not match the source level")
    return RUElement(m, restrict_proj_matrix(m, n).apply(a.coeffs))


def restrict_sub(n: int, d: int, a: RUElement) -> RUElement:
    if a.level != n:
        raise ValueError("element level does not match the source level")
    return RUElement(d, restrict_sub_matrix(n, d).apply(a.coeffs))


def transfer(d: int, n: int, a: RUElement) -> RUElement:
    if a.level != d:
        raise ValueError("element level does not match the subgroup level")
    return RUElement(n, transfer_matrix(d, n).apply(a.coeffs))


def unit_action(n: int, l: int, a: RUElement) -> RUElement:
    if a.level != n:
        raise ValueError("element level does not match")
    return RUElement(n, unit_action_matrix(n, l).apply(a.coeffs))


def transfer_ideal(n: int) -> QMatrix:
    """Columns spanning the ideal generated by all proper transfers.

    One column per transferred monomial tr(X^j) from each proper subgroup:
    the columns of ``transfer_matrix(d, n)`` over the proper divisors d,
    increasing.  Multiplying a transfer by any monomial is again a
    transferred monomial from the same subgroup (projection formula), so
    this set spans the whole ideal of products.  At n = 1 there are no
    proper subgroups and the span is zero.
    """
    # the n x 0 block keeps the stack nonempty at n = 1
    return hstack(QMatrix.zeros(n, 0), *(transfer_matrix(d, n) for d in divisors(n)[:-1]))


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
            out[(i * m + j * n) % nm, i * m + j] = 1
    return out


# ---------------------------------------------------------------------------
# the quotient by proper transfers, eliminated
# ---------------------------------------------------------------------------

class TauLevel(NamedTuple):
    """Level-n quotient by the transfer ideal, found by elimination.

    ``projection`` maps the ambient n-dimensional ring onto the quotient and
    kills exactly the transfer ideal; ``section`` embeds the quotient back as
    the span of the basis monomials (the free columns of the ideal
    elimination, in increasing order).
    """
    level: int
    dim: int
    projection: QMatrix
    section: QMatrix
    basis_monomials: tuple[int, ...]


@lru_cache(maxsize=None)
def tau_level(n: int) -> TauLevel:
    """Eliminate the transfer ideal at level n and package the quotient.

    Independent of ``MonomialReducer``: the ``tau-ru`` verb and the
    dimension criterion count the quotient this way, so that they do not
    restate the presentation the module is built from.
    """
    # the reduced kernel vectors of the ideal's rows vanish on it and are 1
    # at their own free column and 0 at the others
    vecs, free = sparse_kernel(transfer_ideal(n).transpose().data, n)
    t = len(free)
    section = QMatrix.zeros(n, t)
    for j, bj in enumerate(free):
        section[bj, j] = _F1
    return TauLevel(n, t, QMatrix.from_row_dicts(vecs, n), section, tuple(free))


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
    """

    __slots__ = ("n", "factors", "basis", "basis_index", "_cache")

    def __init__(self, n: int):
        self.n = n
        self.factors = []
        for p, k in factorization(n):
            self.factors.append((p, p ** k, p ** (k - 1), n // p))
        # the fixed exponents, by CRT from each prime's upper residues
        basis, mod = [0], 1
        for _, pk, bound, _ in self.factors:
            inv = pow(mod, -1, pk)
            basis = [b + mod * ((r - b) * inv % pk) for b in basis for r in range(bound, pk)]
            mod *= pk
        basis.sort()
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

    def reduce_sparse(self, vec: dict[int, Entry]) -> dict[int, Entry]:
        """Reduce a sparse ambient vector; keys are basis exponents.

        The rewriting has integer coefficients, so an integer vector reduces
        to an integer vector, and so do its unit actions and inflations
        below.
        """
        return self._reduce_scaled(vec, 1)

    def act_unit(self, l: int, vec: dict[int, Entry]) -> dict[int, Entry]:
        """Unit action on a reduced vector: scale exponents, reduce again."""
        return self._reduce_scaled(vec, l)

    def inflate_from(self, sub: "MonomialReducer", vec: dict[int, Entry]) -> dict[int, Entry]:
        """Inflation of a reduced level-d vector up to this level (d | n)."""
        return self._reduce_scaled(vec, self.n // sub.n)

    def _reduce_scaled(self, vec: dict[int, Entry], mult: int) -> dict[int, Entry]:
        """Reduce the vector with every exponent e read as e*mult mod n.

        A key whose sum cancels is deleted where it cancels, and a later
        term puts it back at the end, so the output's key order is fixed
        by the input's; the demos print it.
        """
        n, cache = self.n, self._cache
        out: dict[int, Entry] = {}
        for e, c in vec.items():
            if not c:
                continue
            e = e * mult % n
            terms = cache.get(e)
            if terms is None:
                terms = self.reduce_exponent(e)
            for b, s in terms.items():
                v = out.get(b, 0) + (c if s == 1 else -c if s == -1 else c * s)
                if v:
                    out[b] = v
                elif b in out:
                    del out[b]
        return out

    def columns(self, vecs: Sequence[dict[int, Entry]], scale: Entry = 1) -> QMatrix:
        """The matrix whose column j holds scale times the reduced vector
        vecs[j] in quotient coordinates (row i for the i-th basis
        monomial).  Equal coefficients share one ``Fraction``."""
        rows: list[dict[int, Entry]] = [{} for _ in range(self.dim)]
        index = self.basis_index
        scale = rat(scale)
        values: dict[Entry, Fraction] = {}
        for j, vec in enumerate(vecs):
            for e, c in vec.items():
                q = values.get(c)
                if q is None:
                    q = values[c] = scale * c
                rows[index[e]][j] = q
        return QMatrix.from_row_dicts(rows, len(vecs))


# ---------------------------------------------------------------------------
# the transfer-quotient module
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reducer(n: int) -> MonomialReducer:
    return MonomialReducer(n)


def tau_action(n: int, l: int) -> QMatrix:
    """The unit l acting on the level-n quotient: column j is the reduced
    monomial X^{b*l mod n}, b the j-th basis monomial."""
    red = _reducer(n)
    return red.columns([red.reduce_exponent(b * l % n) for b in red.basis])


def tau_restriction(n: int, m: int) -> QMatrix:
    """Inflation from level n up to level m on the quotients (n | m):
    column j is the reduced level-m monomial X^{b*(m/n) mod m}."""
    red_n, red_m = _reducer(n), _reducer(m)
    step = m // n
    return red_m.columns([red_m.reduce_exponent(b * step % m) for b in red_n.basis])


def tau_ru_module(support: SupportSet) -> OutCycModule:
    """The transfer quotient over the support, every matrix materialized."""
    dims = {n: _reducer(n).dim for n in support}
    actions = {n: {l: tau_action(n, l) for l in units(n)} for n in support}
    restrictions = {(n, m): tau_restriction(n, m) for n, m in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions, name="tauRU")
