"""Independent oracles for the test suite.

These recompute expected values by routes disjoint from the library code
they check: character theory with symbolic cyclotomic reduction, brute
force counting, explicit fixed-space elimination.  Keeping them here and
keeping them dumb is the point; do not "optimize" them into the library.
The simple paths that faster library code replaced live here too, as
references for differential tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from cycrep.linalg import (QMatrix, column_space_basis, hstack, kernel_basis,
                           solve, vstack)
from cycrep.rep_ring import RUElement

F0 = Fraction(0)
F1 = Fraction(1)


# --- exact polynomial arithmetic (dense coefficient lists, low degree first)

def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [F0] * max(0, len(a) - len(b) + 1)
    while len(poly_trim(a)) >= len(b):
        shift = len(a) - len(b)
        coeff = a[-1] / b[-1]
        q[shift] = coeff
        for i, y in enumerate(b):
            a[shift + i] -= coeff * y
        poly_trim(a)
    return poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[Fraction, ...]:
    """The n-th cyclotomic polynomial, by exact division of X^n - 1."""
    xn1 = [F0] * (n + 1)
    xn1[0] = -F1
    xn1[n] = F1
    rest = [F1]
    for d in range(1, n):
        if n % d == 0:
            rest = poly_mul(rest, list(cyclotomic(d)))
    q, r = poly_divmod(xn1, rest)
    assert not poly_trim(r), f"cyclotomic division left a remainder at {n}"
    return tuple(q)


def reduce_root_combination(vec: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """Canonical form of a sum of coeff * zeta_n^exponent: reduce the
    exponent polynomial modulo the n-th cyclotomic polynomial."""
    poly = [F0] * n
    for e, c in vec.items():
        poly[e % n] += c
    _, r = poly_divmod(poly, list(cyclotomic(n)))
    r = r + [F0] * (n - len(r))
    return tuple(r[: max(1, len(cyclotomic(n)) - 1)])


def roots_equal(a: dict[int, Fraction], b: dict[int, Fraction], n: int) -> bool:
    return reduce_root_combination(a, n) == reduce_root_combination(b, n)


def char_value(a: RUElement, t: int) -> dict[int, Fraction]:
    """The character of a virtual representation at the t-th power of the
    chosen generator, as a formal combination of roots of unity."""
    out: dict[int, Fraction] = {}
    n = a.level
    for i, c in enumerate(a.coeffs):
        if c:
            e = (i * t) % n
            out[e] = out.get(e, F0) + c
    return out


def embed_roots(vec: dict[int, Fraction], n: int, m: int) -> dict[int, Fraction]:
    """Rewrite a combination of n-th roots as m-th roots (n | m)."""
    assert m % n == 0
    step = m // n
    return {(e * step) % m: c for e, c in vec.items()}


# --- brute-force arithmetic

def brute_totient(n: int) -> int:
    if n == 1:
        return 1
    return sum(1 for u in range(1, n) if gcd(u, n) == 1)


def brute_units(n: int) -> list[int]:
    if n == 1:
        return [1]
    return [u for u in range(1, n) if gcd(u, n) == 1]


# --- fixed spaces of unit actions

def fixed_space_dim(mats: list[QMatrix]) -> int:
    """Dimension of the joint fixed space of a list of square matrices."""
    if not mats:
        return 0
    d = mats[0].rows
    if d == 0:
        return 0
    stacked = vstack(*[m - QMatrix.identity(d) for m in mats])
    return kernel_basis(stacked).cols


# --- induced representations of cyclic groups, from first principles

def induced_char_poly_check(d: int, n: int, j: int) -> bool:
    """Check that inducing the j-th character from the order-d subgroup
    yields exactly the characters congruent to j mod d.

    The generator of the big group acts on the induced module by the
    companion matrix of Y^{n/d} - zeta_d^j, so its characteristic polynomial
    must equal the product of (Y - zeta_n^i) over the claimed constituents.
    All arithmetic is symbolic in the n-th roots of unity.
    """
    q = n // d
    # left side: product over i congruent to j mod d of (Y - zeta_n^i)
    # polynomial in Y, coefficients are root combinations
    poly: list[dict[int, Fraction]] = [{0: F1}]
    for i in range(j % d, n, d):
        nxt: list[dict[int, Fraction]] = [dict() for _ in range(len(poly) + 1)]
        for deg, coeff in enumerate(poly):
            for e, c in coeff.items():
                nxt[deg + 1][e] = nxt[deg + 1].get(e, F0) + c
                e2 = (e + i) % n
                nxt[deg][e2] = nxt[deg].get(e2, F0) - c
        poly = nxt
    # right side: Y^q - zeta_n^{j * n/d}
    rhs: list[dict[int, Fraction]] = [dict() for _ in range(q + 1)]
    rhs[q][0] = F1
    rhs[0][(j * (n // d)) % n] = -F1
    if len(poly) != len(rhs):
        return False
    return all(roots_equal(a, b, n) for a, b in zip(poly, rhs))


# --- exact elimination and witness selection, the simple way

def dense_rank(m: QMatrix) -> int:
    """Rank by plain Gaussian elimination in Fraction arithmetic, pivoting on
    the first nonzero entry of each column."""
    rows = m.to_rows()
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r]
        support = [j for j in range(c, m.cols) if p[j]]
        for row in rows[r + 1:]:
            if row[c]:
                f = row[c] / p[c]
                for j in support:
                    row[j] -= f * p[j]
        r += 1
    return r


def witnesses_by_solve(diffs: list[QMatrix], dims: list[int]) -> list[list[list[Fraction]]]:
    """Derived-limit witnesses chosen greedily from the reduced kernel basis
    of each differential: a cocycle is kept when solving for it against the
    coboundaries and the cocycles kept so far fails."""
    witnesses = []
    for k, want in enumerate(dims):
        cocycles = kernel_basis(diffs[k])
        span = None if k == 0 else column_space_basis(diffs[k - 1])[0]
        chosen: list[list[Fraction]] = []
        for j in range(cocycles.cols):
            if len(chosen) == want:
                break
            vec = cocycles.column_vector(j)
            if span is None or solve(span, vec) is None:
                chosen.append(vec.col(0))
                span = vec if span is None else hstack(span, vec)
        witnesses.append(chosen)
    return witnesses
