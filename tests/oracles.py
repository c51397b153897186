"""Independent oracles for the test suite.

These recompute expected values by routes disjoint from the library code
they check: character theory with symbolic cyclotomic reduction, brute
force counting, explicit fixed-space elimination.  Keeping them here and
keeping them dumb is the point; do not "optimize" them into the library.
The simple paths that faster library code replaced live here too, as
references for differential tests.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from cycrep.cyclic_site import factorization, reduce_unit, totient, unit_reduction, units
from cycrep.hom_ext import (CochainComplex, HomSpace, ResolutionStep, TowerReport, _chains,
                            _SpanTracker, limit_basis)
from cycrep.linalg import (Entry, QMatrix, RatLike, _int_matrix, _int_row, _int_vecmat,
                           _kernel_vectors, _reduce, cokernel, column_space_basis, hstack,
                           kernel_basis, kronecker, rat, rat_to_str, rank, solve, solve_matrix)
from cycrep.modules import (InverseSystem, ModuleMorphism, MorphismFactorization,
                            OutCycModule, conjugate_module, dual_system, regular_module,
                            restriction_matrix)
from cycrep.normal_basis import LevelCheck, SquareCheck
from cycrep.rep_ring import (MonomialReducer, RUElement, restrict_proj_matrix, tau_level,
                             transfer_ideal, unit_action_matrix)

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


def brute_cyclic_subgroup_count(n: int) -> int:
    """The cyclic subgroups of units(n), counted as the sum over units g of
    1/phi(ord g): a cyclic group of order k has phi(k) generators."""
    total = F0
    for g in brute_units(n):
        order, x = 1, g % n if n > 1 else 1
        while x != 1 % n and n > 1:
            x = x * g % n
            order += 1
        total += Fraction(1, brute_totient(order))
    assert total.denominator == 1
    return int(total)


def group_ring_mul(a: dict[int, Fraction], b: dict[int, Fraction], n: int) -> dict[int, Fraction]:
    """Convolution in Q[units(n)] of elements given as {unit: coefficient}."""
    out: dict[int, Fraction] = {}
    for g, x in a.items():
        for h, y in b.items():
            gh = g * h % n if n > 1 else 1
            out[gh] = out.get(gh, F0) + x * y
    return {g: v for g, v in out.items() if v}


def idempotent_family_problems(elements: list[dict[int, Fraction]], n: int) -> list[str]:
    """What keeps elements of Q[units(n)] from being a complete family of
    orthogonal idempotents: e e = e, e e' = 0 for e != e', sum e = 1."""
    problems = []
    for i, e in enumerate(elements):
        if group_ring_mul(e, e, n) != e:
            problems.append(f"element {i} is not idempotent")
        for j in range(i):
            if group_ring_mul(e, elements[j], n):
                problems.append(f"elements {j} and {i} are not orthogonal")
    total: dict[int, Fraction] = {}
    for e in elements:
        for g, v in e.items():
            total[g] = total.get(g, F0) + v
    if {g: v for g, v in total.items() if v} != {1: F1}:
        problems.append("the elements do not sum to 1")
    return problems


def simple_module(n: int, blk, support) -> OutCycModule:
    """S_{n, psi}: e Q[units(n)] at level n, zero elsewhere.

    In the basis 1, x, ..., x^(phi(d)-1) of Q[x]/Phi_d, a unit u acts by
    multiplication by x^s(u), reduced with the polynomial division above.
    """
    d = blk.order
    phi_d = list(cyclotomic(d))
    deg = len(phi_d) - 1
    un = units(n)

    def times_power(s: int) -> QMatrix:
        cols = []
        for t in range(deg):
            _, r = poly_divmod([F0] * (t + s) + [F1], phi_d)
            cols.append(r + [F0] * (deg - len(r)))
        return QMatrix.from_columns(cols, rows=deg)

    dims = {m: (deg if m == n else 0) for m in support}
    actions = {m: {u: QMatrix.zeros(0, 0) for u in units(m)} for m in support}
    actions[n] = {u: times_power(s) for u, s in zip(un, blk.exponents)}
    restrictions = {(a, b): QMatrix.zeros(dims[b], dims[a]) for a, b in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions, name=f"simple:{n}:{blk.key}")


# --- fixed spaces of unit actions

def vstack(*mats: QMatrix) -> QMatrix:
    """The rows of the matrices, one matrix below the other."""
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    return QMatrix.from_row_dicts([dict(r) for m in mats for r in m.data], cols)


def fixed_space_dim(mats: list[QMatrix]) -> int:
    """Dimension of the joint fixed space of a list of square matrices."""
    if not mats:
        return 0
    d = mats[0].rows
    if d == 0:
        return 0
    stacked = vstack(*[m - QMatrix.identity(d) for m in mats])
    return stacked.cols - dense_rank(stacked)


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


# --- the dense matrix that QMatrix's sparse rows replaced

class DenseQMatrix:
    """Dense matrix of exact rationals: one flat row-major list holding every
    entry, zeros included.  The reference for differential tests of
    ``QMatrix``; it offers the same constructors, reads and operations."""

    __slots__ = ("rows", "cols", "flat")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        e = [rat(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.flat = e

    @classmethod
    def from_rows(cls, data, cols=None) -> "DenseQMatrix":
        rows = len(data)
        if rows == 0:
            return cls(0, 0 if cols is None else cols, [])
        if cols is None:
            cols = len(data[0])
        flat: list[RatLike] = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int) -> "DenseQMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.flat[i * n + i] = F1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseQMatrix":
        return cls(rows, cols, [F0] * (rows * cols))

    @classmethod
    def column(cls, values) -> "DenseQMatrix":
        return cls(len(values), 1, values)

    @classmethod
    def from_columns(cls, columns, rows=None) -> "DenseQMatrix":
        if not columns:
            return cls(0 if rows is None else rows, 0, [])
        if rows is None:
            rows = len(columns[0])
        m = cls.zeros(rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                m.flat[i * m.cols + j] = rat(v)
        return m

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.flat[i * self.cols + j]

    def __setitem__(self, ij: tuple[int, int], v) -> None:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        self.flat[i * self.cols + j] = v

    def row(self, i: int) -> list[Fraction]:
        c = self.cols
        return self.flat[i * c:(i + 1) * c]

    def col(self, j: int) -> list[Fraction]:
        c = self.cols
        return self.flat[j::c] if c else []

    def to_rows(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "DenseQMatrix":
        t = DenseQMatrix.zeros(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                t.flat[j * self.rows + i] = self.flat[i * self.cols + j]
        return t

    def __matmul__(self, other: "DenseQMatrix") -> "DenseQMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        out = DenseQMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            for j in range(other.cols):
                out.flat[i * other.cols + j] = sum(
                    (self[i, t] * other[t, j] for t in range(self.cols)), F0)
        return out

    def apply(self, vec) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((w * v for w, v in zip(self.row(i), vec)), F0) for i in range(self.rows)]

    def __add__(self, other: "DenseQMatrix") -> "DenseQMatrix":
        if self.shape() != other.shape():
            raise ValueError("shape mismatch in addition")
        return DenseQMatrix(self.rows, self.cols, [x + y for x, y in zip(self.flat, other.flat)])

    def __sub__(self, other: "DenseQMatrix") -> "DenseQMatrix":
        if self.shape() != other.shape():
            raise ValueError("shape mismatch in subtraction")
        return DenseQMatrix(self.rows, self.cols, [x - y for x, y in zip(self.flat, other.flat)])

    def __neg__(self) -> "DenseQMatrix":
        return DenseQMatrix(self.rows, self.cols, [-x for x in self.flat])

    def scale(self, c) -> "DenseQMatrix":
        c = rat(c)
        return DenseQMatrix(self.rows, self.cols, [c * x for x in self.flat])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseQMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.flat == other.flat

    def is_zero(self) -> bool:
        return not any(self.flat)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.flat[::self.cols + 1], F0)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_str(v) for v in self.row(i)) for i in range(self.rows))
        return f"DenseQMatrix({self.rows}x{self.cols}: {body})"


def flat_entries(m: QMatrix) -> list[Fraction]:
    """Every entry of ``m``, zeros included, row-major."""
    return [v for row in m.to_rows() for v in row]


def stored_values(m: QMatrix) -> list[Fraction]:
    """The values ``m`` stores, row by row."""
    return [v for row in m.data for v in row.values()]


# --- exact elimination and witness selection, the simple way

def reduce_kernel(rows, ncols: int) -> tuple[list[dict[int, Entry]], list[int]]:
    """The reduced kernel basis and free columns of sparse rows by one
    ``_reduce`` of every row, as ``sparse_kernel`` computed them before its
    union-find presolve: the same vectors, key order and entry types."""
    return _kernel_vectors(
        _reduce([_int_row((j, v) for j, v in row.items() if v) for row in rows]), range(ncols))


def dense_rank(m: QMatrix) -> int:
    """Rank by plain Gaussian elimination in Fraction arithmetic, pivoting on
    the first nonzero entry of each column."""
    rows = [[Fraction(v) for v in row] for row in m.to_rows()]
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


def _int_rows(m: QMatrix) -> list[list[int]]:
    """Clear denominators row by row; the row space is unchanged."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = 1
        for v in row:
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            out.append([v.numerator for v in row])
        else:
            out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def _row_gcd_reduce(row: list[int]) -> None:
    g = 0
    for v in row:
        if v:
            g = gcd(g, -v if v < 0 else v)
            if g == 1:
                return
    if g > 1:
        for j, v in enumerate(row):
            if v:
                row[j] = v // g


_GROWTH_LIMIT = 1 << 96


def _combine(row: list[int], prow: list[int], pnz: list[int],
             pval: int, v: int, start: int, ncols: int) -> None:
    """row := (pval/g) * row - (v/g) * prow, integer and in place.

    When the pivot divides the eliminated entry only the pivot row's nonzero
    columns are touched, which keeps sparse eliminations near-linear.
    """
    g = gcd(pval, v)
    a = pval // g
    b = v // g
    if a == 1:
        for j in pnz:
            row[j] -= b * prow[j]
        if b > _GROWTH_LIMIT or -b > _GROWTH_LIMIT:
            _row_gcd_reduce(row)
    elif a == -1:
        for j in range(start, ncols):
            row[j] = -row[j]
        for j in pnz:
            row[j] -= b * prow[j]
        if b > _GROWTH_LIMIT or -b > _GROWTH_LIMIT:
            _row_gcd_reduce(row)
    else:
        for j in range(start, ncols):
            w = row[j]
            if w:
                row[j] = a * w
        for j in pnz:
            row[j] -= b * prow[j]
        if abs(a) > 1:
            for j in range(start, ncols):
                w = row[j]
                if w and (w > _GROWTH_LIMIT or -w > _GROWTH_LIMIT):
                    _row_gcd_reduce(row)
                    break


def _eliminate(rows: list[list[int]], ncols: int) -> list[int]:
    """In-place integer row elimination; returns the pivot columns.

    Forward pass produces row echelon form; the backward pass clears the
    entries above each pivot as well, so each column either is a pivot
    column (single nonzero) or only has entries in pivot rows.
    """
    pivots: list[int] = []
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[piv], rows[r] = rows[r], rows[piv]
        prow = rows[r]
        pval = prow[c]
        pnz = [j for j in range(c, ncols) if prow[j]]
        for i in range(r + 1, nrows):
            row = rows[i]
            v = row[c]
            if v:
                _combine(row, prow, pnz, pval, v, c, ncols)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        prow = rows[r]
        pval = prow[c]
        pnz = [j for j in range(c, ncols) if prow[j]]
        for i in range(r):
            row = rows[i]
            v = row[c]
            if v:
                _combine(row, prow, pnz, pval, v, 0, ncols)
    return pivots


def dense_rref_rows(m: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon rows (Fractions, pivots normalized to 1, zero rows
    last) and the pivot columns, by dense fraction-free integer Gauss-Jordan
    elimination that pivots on the first nonzero entry in scan order."""
    rows = _int_rows(m)
    pivots = _eliminate(rows, m.cols)
    out: list[list[Fraction]] = []
    for r, c in enumerate(pivots):
        pv = rows[r][c]
        out.append([Fraction(v, pv) if v else F0 for v in rows[r]])
    for r in range(len(pivots), m.rows):
        out.append([F0] * m.cols)
    return out, pivots


def dense_kernel_basis(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """The reduced kernel basis of ``m`` (as columns) and its pivot columns,
    read from ``dense_rref_rows``."""
    rows, pivots = dense_rref_rows(m)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for j in free:
        vec = [F0] * m.cols
        vec[j] = F1
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][j]
        basis.append(vec)
    return QMatrix.from_columns(basis, rows=m.cols), pivots


def dense_solve_matrix(a: QMatrix, b: QMatrix):
    """The witness read from the b block of ``dense_rref_rows`` of
    ``[a | b]`` (zero at the free columns of ``a``), or None when a pivot
    lands in the b block."""
    rows, pivots = dense_rref_rows(hstack(a, b))
    if any(c >= a.cols for c in pivots):
        return None
    x = [[F0] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(pivots):
        x[c] = rows[r][a.cols:]
    return QMatrix.from_rows(x, cols=b.cols)


def dense_tau_level(n: int) -> tuple[QMatrix, QMatrix, tuple[int, ...]]:
    """Projection, section and basis monomials of the level-n transfer
    quotient, from ``dense_rref_rows`` of the transfer ideal: the basis is
    the non-pivot monomials, and the projection sends X^b to itself on the
    basis and a pivot monomial to minus its reduced row."""
    rows, pivots = dense_rref_rows(transfer_ideal(n).transpose())
    basis = tuple(i for i in range(n) if i not in pivots)
    proj = [[F0] * n for _ in basis]
    for j, b in enumerate(basis):
        proj[j][b] = F1
        for r, p in enumerate(pivots):
            proj[j][p] = -rows[r][b]
    section = QMatrix.from_columns(
        [[F1 if i == b else F0 for i in range(n)] for b in basis], rows=n)
    return QMatrix.from_rows(proj, cols=n), section, basis


def witnesses_by_solve(diffs: list[QMatrix], dims: list[int]) -> list[list[list[Fraction]]]:
    """Derived-limit witnesses chosen greedily from the reduced kernel basis
    of each differential: a cocycle is kept when solving for it against the
    coboundaries and the cocycles kept so far fails."""
    witnesses = []
    for k, want in enumerate(dims):
        cocycles = dense_kernel_basis(diffs[k])[0]
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


def tracker_witnesses(cx: CochainComplex, dims: list[int]) -> list[list[list[Fraction]]]:
    """Derived-limit witnesses picked incrementally, as ``lim_derived`` did
    before it read them off reduced forms: a span tracker is seeded with the
    coboundaries, then takes each cocycle of the reduced kernel basis that
    grows it."""
    witnesses: list[list[list[Fraction]]] = []
    for k, want in enumerate(dims):
        chosen: list[list[Fraction]] = []
        if want:
            d = cx.diffs[k]
            vecs, _ = reduce_kernel(d.data, d.cols)
            cocycles = QMatrix.from_row_dicts(vecs, d.cols)
            span = _SpanTracker()
            if k:
                # the coboundaries span this many dimensions; once the
                # tracker holds them all, later columns cannot grow it
                image_rank = cocycles.rows - want
                for col in cx.diffs[k - 1].transpose().data:
                    if span.rank == image_rank:
                        break
                    span.add(col)
            for j, vec in enumerate(cocycles.data):
                if span.add(vec):
                    chosen.append(cocycles.row(j))
                    if len(chosen) == want:
                        break
        witnesses.append(chosen)
    return witnesses


# --- the candidates of the block cover, from whole weighted sums

def all_units_candidates(x: OutCycModule, n: int, blk):
    """|units(n)| e u_j for the unit vectors u_j, zeros skipped, as
    ``_ModuleStage.candidates`` built them before it built each column on
    demand: column j of sum_g w_g A(g), summed over the stored entries of
    each A(g), for the whole matrix before the first column is yielded."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(x.dim(n))]
    for w, g in zip(blk.weights(), units(n)):
        if w:
            for i, r in enumerate(x.action(n, g).data):
                for j, v in r.items():
                    acc = cols[j]
                    acc[i] = acc.get(i, 0) + w * v
    for acc in cols:
        vec = {i: v for i, v in acc.items() if v}
        if vec:
            yield vec


# --- the greedy resolution by whole representables
#
# The cover that resolve_by_representables used before it covered each
# stage minimally by block projectives e P_n: walk the support upward and
# add a whole representable P_n on every standard basis vector not yet in
# the span, with a free sum whose blocks are indexed by units(n).

class GreedyFreeSum:
    """A finite sum of representable modules, given by generator levels.

    The value at level m has one block per generator whose level divides m,
    with the block basis indexed by the units of the generator level.
    Vectors are sparse ``{index: value}`` dicts.  All structure maps are
    index bookkeeping: a unit permutes each block, and a restriction keeps
    every block but moves it to its offset at the larger level.  Both are
    cached as index maps, per (level, unit) and per pair of levels, and
    applied to the nonzeros only.
    """

    __slots__ = ("gens", "support", "_layout", "_perms", "_shifts", "_block_perms")

    def __init__(self, gens: list[int], support: SupportSet):
        self.gens = list(gens)
        self.support = support
        self._layout: dict[int, list[tuple[int, int]]] = {}
        self._perms: dict[tuple[int, int], list[int]] = {}
        self._shifts: dict[tuple[int, int], list[int]] = {}
        self._block_perms: dict[tuple[int, int], list[int]] = {}
        for m in support:
            lay = []
            off = 0
            for i, n in enumerate(self.gens):
                if m % n == 0:
                    lay.append((i, off))
                    off += len(units(n))
            self._layout[m] = lay

    def dim(self, m: int) -> int:
        lay = self._layout[m]
        if not lay:
            return 0
        i, off = lay[-1]
        return off + len(units(self.gens[i]))

    def layout(self, m: int) -> list[tuple[int, int]]:
        return self._layout[m]

    def act(self, m: int, l: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        perm = self._perms.get((m, l))
        if perm is None:
            perm = []
            for i, off in self._layout[m]:
                n = self.gens[i]
                lbar = 1 if n == 1 else l % n
                block = self._block_perms.get((n, lbar))
                if block is None:
                    un = units(n)
                    block = [un.index(un.mul(u, lbar)) for u in un]
                    self._block_perms[(n, lbar)] = block
                perm.extend([off + k for k in block])
            self._perms[(m, l)] = perm
        return {perm[k]: v for k, v in vec.items()}

    def res(self, n: int, m: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Composite restriction from level n to level m (n | m): blocks keep
        their labels, the target simply has room for more of them."""
        shift = self._shifts.get((n, m))
        if shift is None:
            dst = dict(self._layout[m])
            shift = []
            for i, off in self._layout[n]:
                doff = dst[i]
                shift.extend(range(doff, doff + len(units(self.gens[i]))))
            self._shifts[(n, m)] = shift
        return {shift[k]: v for k, v in vec.items()}


class GreedyStage:
    """A module a resolution step must cover: either the original module or
    the kernel of the previous covering map, presented inside a free sum."""

    def __init__(self, support: SupportSet):
        self.support = support

    def dim(self, n: int) -> int:
        raise NotImplementedError

    def generator_images(self, n_gen: int, idx: int) -> dict[int, list[dict[int, Fraction]]]:
        """For the standard basis vector ``idx`` at level ``n_gen``, the value
        of every induced basis map at every level: images[m][k] is the image
        at level m of the k-th unit of units(n_gen), as a sparse vector."""
        raise NotImplementedError


def _sparse(vec: Sequence[Fraction]) -> dict[int, Fraction]:
    return {i: v for i, v in enumerate(vec) if v}


class GreedyModuleStage(GreedyStage):
    def __init__(self, x: OutCycModule):
        super().__init__(x.support)
        self.x = x
        self._res_cache: dict[tuple[int, int], list[dict[int, Fraction]]] = {}

    def dim(self, n: int) -> int:
        return self.x.dim(n)

    def _res_cols(self, n: int, m: int) -> list[dict[int, Fraction]]:
        """The columns of the composite restriction n -> m, sparse."""
        key = (n, m)
        if key not in self._res_cache:
            res = restriction_matrix(self.x, m, n)
            self._res_cache[key] = [_sparse(res.col(j)) for j in range(res.cols)]
        return self._res_cache[key]

    def generator_images(self, n_gen: int, idx: int) -> dict[int, list[dict[int, Fraction]]]:
        out: dict[int, list[dict[int, Fraction]]] = {}
        un = units(n_gen)
        acted = [_sparse(self.x.action(n_gen, u).col(idx)) for u in un]
        for m in self.support.multiples_of(n_gen):
            cols = self._res_cols(n_gen, m)
            vals = []
            for v in acted:
                w: dict[int, Fraction] = {}
                for j, c in v.items():
                    for i, r in cols[j].items():
                        w[i] = w.get(i, F0) + c * r
                vals.append({i: s for i, s in w.items() if s})
            out[m] = vals
        return out


class GreedyKernelStage(GreedyStage):
    """The kernel of a covering map out of a free sum.

    The inclusions are reduced kernel bases, stored as sparse columns, so
    the coordinates of an ambient kernel vector are just its entries at the
    free rows; action and restriction are computed ambiently through the
    free sum's index bookkeeping and then read off.
    """

    def __init__(self, free: GreedyFreeSum, incl: dict[int, list[dict[int, Fraction]]],
                 free_rows: dict[int, list[int]]):
        super().__init__(free.support)
        self.free = free
        self.incl = incl
        self.free_pos = {m: {r: k for k, r in enumerate(rows)}
                         for m, rows in free_rows.items()}

    def dim(self, n: int) -> int:
        return len(self.incl[n])

    def generator_images(self, n_gen: int, idx: int) -> dict[int, list[dict[int, Fraction]]]:
        out: dict[int, list[dict[int, Fraction]]] = {}
        ambient = self.incl[n_gen][idx]
        acted = [self.free.act(n_gen, u, ambient) for u in units(n_gen)]
        for m in self.support.multiples_of(n_gen):
            pos = self.free_pos[m]
            vals = []
            for v in acted:
                w = self.free.res(n_gen, m, v)
                vals.append({pos[r]: x for r, x in w.items() if r in pos})
            out[m] = vals
        return out


def greedy_cover_stage(stage: GreedyStage) -> tuple[list[int], list[int],
                                          dict[int, list[list[dict[int, Fraction]]]]]:
    """Greedy cover of a stage by representable generators.

    Walks the support upward; at each level it adds generators on standard
    basis vectors not yet hit until the level is full.  Returns the chosen
    generator levels, their basis indices, and all generator images (the
    columns of the covering map, grouped by generator then level).
    """
    support = stage.support
    trackers = {n: _SpanTracker() for n in support}
    gens: list[int] = []
    gen_idx: list[int] = []
    images: dict[int, list[list[dict[int, Fraction]]]] = {n: [] for n in support}
    for n in support:
        d = stage.dim(n)
        guard = 0
        scan = 0  # unit vectors stay covered once covered, so never rescan
        while trackers[n].rank < d:
            guard += 1
            if guard > d + 1:
                raise RuntimeError(f"covering failed to progress at level {n}")
            while scan < d and trackers[n].contains({scan: F1}):
                scan += 1
            assert scan < d
            pick = scan
            gens.append(n)
            gen_idx.append(pick)
            imgs = stage.generator_images(n, pick)
            for m, vals in imgs.items():
                tr = trackers[m]
                if tr.rank < stage.dim(m):
                    for v in vals:
                        tr.add(v)
            for m in support:
                images[m].append(imgs.get(m, []))
    return gens, gen_idx, images


def greedy_resolve(x: OutCycModule, depth: int) -> list[ResolutionStep]:
    """A resolution of x by sums of whole representables P_n, to the given
    depth, as ``resolve_by_representables`` built it before it covered by
    block projectives.

    Step k records the generator levels of the k-th term and, for k >= 1,
    the classifying columns of the differential into the previous term; its
    ``blocks`` are None, so ``_hom_cochain`` reads the cochain spaces off
    the differentials' shapes.  It is not minimal: the regular module, a
    projective, gets generators in every degree.
    """
    support = x.support
    stage: GreedyStage = GreedyModuleStage(x)
    steps: list[ResolutionStep] = []
    for k in range(depth + 1):
        gens, gen_idx, images = greedy_cover_stage(stage)
        free = GreedyFreeSum(gens, support)
        if k == 0:
            classifier_cols = []
        else:
            prev_stage = stage
            assert isinstance(prev_stage, GreedyKernelStage)
            classifier_cols = [prev_stage.incl[n][i] for n, i in zip(gens, gen_idx)]
        steps.append(ResolutionStep(gens, classifier_cols))
        if k == depth:
            break
        # the covering map's matrix at each level, by sparse rows in stage
        # coordinates; its columns are the free sum's basis at that level
        incl: dict[int, list[dict[int, Fraction]]] = {}
        free_rows: dict[int, list[int]] = {}
        all_zero = True
        for m in support:
            rows: list[dict[int, Fraction]] = [{} for _ in range(stage.dim(m))]
            col = 0
            for gi, n_gen in enumerate(gens):
                if m % n_gen == 0:
                    for v in images[m][gi]:
                        for r, val in v.items():
                            rows[r][col] = val
                        col += 1
            incl[m], free_rows[m] = reduce_kernel(rows, col)
            if incl[m]:
                all_zero = False
        stage = GreedyKernelStage(free, incl, free_rows)
        if all_zero:
            # kernel vanished: the resolution ends; remaining terms are zero
            for _ in range(k + 1, depth + 1):
                steps.append(ResolutionStep([], []))
            break
    return steps


# --- the resolution by representables and its Hom cochains, densely
#
# The dense path that the sparse greedy resolution above replaced:
# full-length Fraction vectors, a row-echelon span tracker that scans whole
# rows, the kernel from the dense reduced row echelon form, and
# one matrix product per cochain block.

class DenseSpanTracker:
    """Incremental row-echelon span of integer-scaled dense vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[Fraction]) -> list[int]:
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        row = [int(v * den) for v in vec]
        for r, p in zip(self.rows, self.pivots):
            if row[p]:
                a, b = r[p], row[p]
                row = [a * x - b * y for x, y in zip(row, r)]
        return row

    def contains_unit(self, t: int) -> bool:
        unit = [F0] * self.dim
        unit[t] = F1
        return not any(self._reduce(unit))

    def add(self, vec: list[Fraction]) -> bool:
        row = self._reduce(vec)
        piv = next((j for j, v in enumerate(row) if v), None)
        if piv is None:
            return False
        at = sum(1 for p in self.pivots if p < piv)
        self.rows.insert(at, row)
        self.pivots.insert(at, piv)
        return True


class DenseFreeSum:
    """A sum of representables by generator levels, on dense vectors."""

    def __init__(self, gens: list[int], support):
        self.gens = list(gens)
        self.layout = {}
        self.dims = {}
        for m in support:
            lay, off = [], 0
            for i, n in enumerate(self.gens):
                if m % n == 0:
                    lay.append((i, off))
                    off += len(units(n))
            self.layout[m] = lay
            self.dims[m] = off

    def act(self, m: int, l: int, vec: list[Fraction]) -> list[Fraction]:
        out = [F0] * len(vec)
        for i, off in self.layout[m]:
            un = units(self.gens[i])
            lbar = 1 if un.modulus == 1 else l % un.modulus
            for k, u in enumerate(un):
                out[off + un.index(un.mul(u, lbar))] = vec[off + k]
        return out

    def res(self, n: int, m: int, vec: list[Fraction]) -> list[Fraction]:
        out = [F0] * self.dims[m]
        dst = dict(self.layout[m])
        for i, off in self.layout[n]:
            for k in range(len(units(self.gens[i]))):
                out[dst[i] + k] = vec[off + k]
        return out


class DenseModuleStage:
    def __init__(self, x):
        self.support = x.support
        self.x = x

    def dim(self, n: int) -> int:
        return self.x.dim(n)

    def generator_images(self, n_gen: int, idx: int) -> dict:
        acted = [self.x.action(n_gen, u).col(idx) for u in units(n_gen)]
        out = {}
        for m in self.support.multiples_of(n_gen):
            res = restriction_matrix(self.x, m, n_gen)
            out[m] = [res.apply(v) for v in acted]
        return out


class DenseKernelStage:
    def __init__(self, free: DenseFreeSum, support, incl: dict, free_rows: dict):
        self.support = support
        self.free = free
        self.incl = incl
        self.free_rows = free_rows

    def dim(self, n: int) -> int:
        return self.incl[n].cols

    def generator_images(self, n_gen: int, idx: int) -> dict:
        ambient = self.incl[n_gen].col(idx)
        acted = [self.free.act(n_gen, u, ambient) for u in units(n_gen)]
        out = {}
        for m in self.support.multiples_of(n_gen):
            out[m] = []
            for v in acted:
                w = self.free.res(n_gen, m, v)
                out[m].append([w[r] for r in self.free_rows[m]])
        return out


def dense_cover_stage(stage):
    """Greedy cover by representables: generators on the first unit vector
    not yet in the span, level by level upward."""
    trackers = {n: DenseSpanTracker(stage.dim(n)) for n in stage.support}
    gens, gen_idx = [], []
    images = {n: [] for n in stage.support}
    for n in stage.support:
        d = stage.dim(n)
        scan = 0
        while trackers[n].rank < d:
            while trackers[n].contains_unit(scan):
                scan += 1
            gens.append(n)
            gen_idx.append(scan)
            imgs = stage.generator_images(n, scan)
            for m, vals in imgs.items():
                if trackers[m].rank < stage.dim(m):
                    for v in vals:
                        trackers[m].add(v)
            for m in stage.support:
                images[m].append(imgs.get(m, []))
    return gens, gen_idx, images


def dense_resolve_by_representables(x, depth: int) -> list[tuple[list[int], list[list[Fraction]]]]:
    """(generator levels, dense classifier columns) for each resolution step."""
    support = x.support
    stage = DenseModuleStage(x)
    steps = []
    for k in range(depth + 1):
        gens, gen_idx, images = dense_cover_stage(stage)
        cols = [] if k == 0 else [stage.incl[n].col(i) for n, i in zip(gens, gen_idx)]
        steps.append((gens, cols))
        if k == depth:
            break
        incl, free_rows = {}, {}
        for m in support:
            eps = QMatrix.from_columns(
                [v for gi, n in enumerate(gens) if m % n == 0 for v in images[m][gi]],
                rows=stage.dim(m))
            incl[m], pivots = dense_kernel_basis(eps)
            free_rows[m] = [j for j in range(eps.cols) if j not in pivots]
        if all(incl[m].cols == 0 for m in support):
            steps.extend(([], []) for _ in range(k + 1, depth + 1))
            break
        stage = DenseKernelStage(DenseFreeSum(gens, support), support, incl, free_rows)
    return steps


def dense_hom_cochain(steps, y, support) -> list[QMatrix]:
    """The differentials of Hom(resolution, y), one matrix product per block."""
    def layout(gens):
        offs, tot = [], 0
        for n in gens:
            offs.append(tot)
            tot += y.dim(n)
        return offs, tot

    diffs = []
    for (gens_k, _), (gens_k1, cols_k1) in zip(steps, steps[1:]):
        offs_k, dim_k = layout(gens_k)
        offs_k1, dim_k1 = layout(gens_k1)
        free_k = DenseFreeSum(gens_k, support)
        mat = QMatrix.zeros(dim_k1, dim_k)
        for j, (n_j, z) in enumerate(zip(gens_k1, cols_k1)):
            for i, off in free_k.layout[n_j]:
                n_i = gens_k[i]
                dy = y.dim(n_i)
                weighted = QMatrix.zeros(dy, dy)
                for t, u in enumerate(units(n_i)):
                    if z[off + t]:
                        weighted = weighted + y.action(n_i, u).scale(z[off + t])
                block = restriction_matrix(y, n_j, n_i) @ weighted
                for a in range(block.rows):
                    for b in range(block.cols):
                        mat[offs_k1[j] + a, offs_k[i] + b] += block[a, b]
        diffs.append(mat)
    return diffs


def reference_nerve_entries(x, max_k: int) -> int:
    """The nerve size bound as the CLI once counted it, with its own
    recursion instead of ``_chains``: the degree-k differential has dim x(n)
    rows per (k+2)-element chain (n, m, ...), each with at most dim x(m) + k
    + 1 entries, and the chains are counted by their first step and the
    number of chains of each length that start at every level."""
    support = x.support
    above = {n: [m for m in support.multiples_of(n) if m != n] for n in support}
    starting = {m: 1 for m in support}  # chains with k+1 elements from m
    total = 0
    for k in range(max_k + 1):
        total += sum(x.dim(n) * (x.dim(m) + k + 1) * starting[m]
                     for n in support for m in above[n])
        starting = {n: sum(starting[m] for m in above[n]) for n in support}
    return total


def dense_nerve_complex(d, max_k: int):
    """The nerve cochain complex of ``d`` with dense differentials: one
    ``QMatrix.zeros`` per degree, filled chain by chain, with the composite
    ``d.structure`` rebuilt for every chain.

    Degree k is a product over (k+1)-element chains of the value at the
    chain's bottom element.  The differential is the alternating sum of face
    maps; dropping the bottom element composes with the structure map down
    to it, every other face is a plain identity inclusion.
    """
    all_chains = [_chains(d.support, k + 1) for k in range(max_k + 2)]
    layouts = []
    for chains in all_chains:
        offs = {}
        total = 0
        for ch in chains:
            offs[ch] = total
            total += d.dim(ch[0])
        layouts.append((offs, total))

    diffs = []
    for k in range(max_k + 1):
        offs_k, dim_k = layouts[k]
        offs_k1, dim_k1 = layouts[k + 1]
        mat = QMatrix.zeros(dim_k1, dim_k)
        for sigma in all_chains[k + 1]:
            row0 = offs_k1[sigma]
            d_sigma = d.dim(sigma[0])
            for i in range(len(sigma)):
                tau = sigma[:i] + sigma[i + 1:]
                sign = -1 if i % 2 else 1
                col0 = offs_k[tau]
                if i == 0:
                    step = d.structure(sigma[0], sigma[1])  # D(sigma[1]) -> D(sigma[0])
                    for a in range(d_sigma):
                        for b in range(step.cols):
                            v = step[a, b]
                            if v:
                                mat[row0 + a, col0 + b] += v if sign == 1 else -v
                else:
                    for a in range(d_sigma):
                        mat[row0 + a, col0 + a] += F1 if sign == 1 else -F1
        diffs.append(mat)
    return CochainComplex(diffs), all_chains


# --- test inputs

def scramble(x, seed):
    """x conjugated at every level by a seeded invertible matrix with
    fractional entries, so every structure map gets denominators."""
    return conjugate_module(x, scramble_transforms(x, seed), name=f"scrambled({x.name})")


def scramble_transforms(x, seed) -> dict[int, QMatrix]:
    """The seeded invertible lower-triangular base changes of ``scramble``."""
    rng = random.Random(seed)
    transforms = {}
    for n in x.support:
        d = x.dim(n)
        t = QMatrix.identity(d)
        for i in range(d):
            t[i, i] = rng.choice([Fraction(1), Fraction(2), Fraction(-1, 3)])
            for j in range(i):
                t[i, j] = rng.choice([Fraction(0), Fraction(0), Fraction(1), Fraction(-1, 2)])
        transforms[n] = t
    return transforms


# --- unit-quantified checks over the full table of units, and the dense
# --- products the generator-based library code replaced

def all_pairs_validate_actions(x, n: int) -> list[str]:
    """Identity at 1, shapes, and A(l) A(l') == A(l*l') for every pair."""
    out: list[str] = []
    d = x.dim(n)
    un = units(n)
    if x.action(n, 1) != QMatrix.identity(d):
        out.append(f"action(1) is not the identity at level {n}")
    mats = {l: x.action(n, l) for l in un}
    for l, a in mats.items():
        if a.shape() != (d, d):
            out.append(f"action({l}) at level {n} has shape {a.shape()}, expected {(d, d)}")
    for l in un:
        for lp in un:
            if mats[l] @ mats[lp] != mats[un.mul(l, lp)]:
                out.append(f"action not multiplicative at level {n}: {l} * {lp}")
    return out


def generator_validate_actions(x, n: int) -> list[str]:
    """Identity at 1, shapes, and A(g) A(l) == A(g*l) for every generator g
    and every unit l: each Cayley edge, |gens| * phi(n) products."""
    out: list[str] = []
    d = x.dim(n)
    un = units(n)
    if x.action(n, 1) != QMatrix.identity(d):
        out.append(f"action(1) is not the identity at level {n}")
    mats = {l: x.action(n, l) for l in un}
    for l, a in mats.items():
        if a.shape() != (d, d):
            out.append(f"action({l}) at level {n} has shape {a.shape()}, expected {(d, d)}")
    for g in un.generators():
        for l in un:
            if mats[g] @ mats[l] != mats[un.mul(g, l)]:
                out.append(f"action not multiplicative at level {n}: {g} * {l}")
    return out


def all_unit_validate_squares(x) -> list[str]:
    """Equivariance of every restriction against every unit upstairs."""
    out: list[str] = []
    for n, m in x.support.covering_pairs():
        res = x.restriction_step(n, m)
        if res.shape() != (x.dim(m), x.dim(n)):
            out.append(f"restriction {n}->{m} has the wrong shape")
            continue
        for phi in units(m):
            if x.action(m, phi) @ res != res @ x.action(n, reduce_unit(m, n, phi)):
                out.append(f"equivariance fails on square {n}->{m} at unit {phi}")
    return out


def all_unit_morphism_violations(f) -> list[str]:
    """Equivariance at every unit of every level, and naturality."""
    out: list[str] = []
    for n in f.source.support:
        for l in units(n):
            if f.mats[n] @ f.source.action(n, l) != f.target.action(n, l) @ f.mats[n]:
                out.append(f"equivariance fails at level {n}, unit {l}")
    for n, m in f.source.support.covering_pairs():
        if f.target.restriction_step(n, m) @ f.mats[n] != f.mats[m] @ f.source.restriction_step(n, m):
            out.append(f"naturality fails on restriction {n}->{m}")
    return out


def averaged_equivariant_basis(x, y, n: int) -> QMatrix:
    """Column space of the group-averaging projector over every unit, built
    from Kronecker products: row-major vec(A f B) = (A kron B^T) vec(f)."""
    dx, dy = x.dim(n), y.dim(n)
    if dx == 0 or dy == 0:
        return QMatrix.zeros(dx * dy, 0)
    un = units(n)
    total = QMatrix.zeros(dx * dy, dx * dy)
    for l in un:
        total = total + kronecker(y.action(n, un.inv(l)), x.action(n, l).transpose())
    return column_space_basis(total.scale(Fraction(1, len(un))))[0]


def all_unit_check_equivariance(reducer, n: int, cols) -> bool:
    """Every unit l sends the orbit column of g to the column of l*g."""
    un = units(n)
    return all(reducer.act_unit(l, cols[g]) == cols[un.mul(l, g)] for l in un for g in un)


def generator_check_equivariance(reducer, n: int, cols) -> bool:
    """Every generator l of units(n) sends the orbit column of every g to
    the column of l*g: each Cayley edge."""
    un = units(n)
    return all(reducer.act_unit(l, cols[g]) == cols[un.mul(l, g)]
               for l in un.generators() for g in un)


def conjugated_tau_matrices(support):
    """The transfer quotient's actions and restrictions as the products
    projection @ (unit action or inflation) @ section."""
    actions = {}
    for n in support:
        lv = tau_level(n)
        actions[n] = {l: lv.projection @ unit_action_matrix(n, l) @ lv.section
                      for l in units(n)}
    restrictions = {(n, m): tau_level(m).projection @ restrict_proj_matrix(m, n)
                    @ tau_level(n).section for n, m in support.covering_pairs()}
    return actions, restrictions


def monomial_to_eliminated(n: int) -> QMatrix:
    """The basis change from the reduced quotient basis of
    ``MonomialReducer(n)`` to the eliminated one of ``tau_level(n)``:
    column j is the projection of the j-th reduced basis monomial."""
    proj = tau_level(n).projection
    return QMatrix.from_columns([proj.col(e) for e in MonomialReducer(n).basis],
                                rows=proj.rows)


def fraction_morphism_violations(f) -> list[str]:
    """``ModuleMorphism.validate`` by ``Fraction`` products of the stored
    matrices: shapes, equivariance at the generators of each unit group,
    and naturality on each covering pair, in the library's order and
    wording."""
    out = []
    bad_levels = set()
    for n in f.source.support:
        mat = f.mats[n]
        if mat.shape() != (f.target.dim(n), f.source.dim(n)):
            out.append(f"level {n} matrix has shape {mat.shape()}, expected "
                       f"{(f.target.dim(n), f.source.dim(n))}")
            bad_levels.add(n)
            continue
        for l in units(n).generators():
            if mat @ f.source.action(n, l) != f.target.action(n, l) @ mat:
                out.append(f"equivariance fails at level {n}, unit {l}")
    for n, m in f.source.support.covering_pairs():
        if n in bad_levels or m in bad_levels:
            continue
        lhs = f.target.restriction_step(n, m) @ f.mats[n]
        rhs = f.mats[m] @ f.source.restriction_step(n, m)
        if lhs != rhs:
            out.append(f"naturality fails on restriction {n}->{m}")
    return out


def reference_hom_via_limit_mats(x, families) -> list[dict[int, QMatrix]]:
    """The inverse-limit reconstruction entry by entry: the level-n matrix
    has, in the row of unit g, the form composed with the action of g^-1."""
    out = []
    for fam in families:
        mats = {}
        for n in x.support:
            un = units(n)
            d = x.dim(n)
            mat = QMatrix.zeros(len(un), d)
            for g in un:
                act = x.action(n, un.inv(g))
                for j in range(d):
                    mat[un.index(g), j] = sum(
                        (fam[n][i] * act[i, j] for i in range(act.rows)), F0)
            mats[n] = mat
        out.append(mats)
    return out


def every_inverse_hom_via_limit(x) -> HomSpace:
    """``hom_via_limit`` with the row of each unit g built on its own, as
    the sparse integer product of the form with the view of X(g^-1): one
    view per unit, which completes x's unit tables."""
    reg = regular_module(x.support)
    families = limit_basis(dual_system(x))
    mats: list[dict[int, QMatrix]] = [{} for _ in families]
    for n in x.support:
        un = units(n)
        inverses = [_int_matrix(x.action(n, un.inv(g))) for g in un]
        for fam, fam_mats in zip(families, mats):
            lam = [(i, v) for i, v in enumerate(fam[n]) if v]
            den_lam = lcm(*{v.denominator for _, v in lam})
            lam = [(i, v.numerator * (den_lam // v.denominator)) for i, v in lam]
            rows = []
            for den_a, a_rows in inverses:
                row: dict[int, Entry] = _int_vecmat(lam, a_rows)
                den = den_lam * den_a
                rows.append(row if den == 1 else {j: Fraction(v, den) for j, v in row.items()})
            fam_mats[n] = QMatrix.from_row_dicts(rows, x.dim(n))
    return HomSpace(x, reg, [ModuleMorphism(x, reg, m) for m in mats])


def stacked_matrix(h: HomSpace) -> QMatrix:
    """The basis morphisms of ``h`` flattened to the columns of one matrix."""
    nrows = sum(h.source.dim(n) * h.target.dim(n) for n in h.source.support)
    return QMatrix.from_columns([f.stacked_vector() for f in h.basis], rows=nrows)


def limit_family_compatible(x: OutCycModule, forms: dict[int, list[Fraction]]) -> bool:
    """Whether one form per level is a compatible family for the dual
    system of x: the form at a multiple, composed with the restriction from
    the divisor, recovers the form at the divisor."""
    for n, m in x.support.covering_pairs():
        res = x.restriction_step(n, m)
        composed = [sum((forms[m][i] * res[i, j] for i in range(res.rows)), F0)
                    for j in range(res.cols)]
        if composed != forms[n]:
            return False
    return True


# --- structure maps solved or built separately for every unit, and the
# --- Hom basis reconstruction by one scaled matrix sum per coefficient

def per_unit_direct_sum(mods, name: str = "") -> OutCycModule:
    """Levelwise block-diagonal sum, one block_diag per unit and pair."""
    if not mods:
        raise ValueError("empty direct sum; pass zero_module instead")
    support = mods[0].support
    if any(m.support != support for m in mods):
        raise ValueError("summands live over different supports")
    dims = {n: sum(m.dim(n) for m in mods) for n in support}

    def block_diag(mats: list[QMatrix]) -> QMatrix:
        r = sum(m.rows for m in mats)
        c = sum(m.cols for m in mats)
        out = QMatrix.zeros(r, c)
        ro = co = 0
        for m in mats:
            for i in range(m.rows):
                row = m.row(i)
                for j, v in enumerate(row):
                    if v:
                        out[ro + i, co + j] = v
            ro += m.rows
            co += m.cols
        return out

    actions = {n: {l: block_diag([m.action(n, l) for m in mods]) for l in units(n)}
               for n in support}
    restrictions = {pair: block_diag([m.restriction_step(*pair) for m in mods])
                    for pair in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions,
                        name=name or "(+)".join(m.name or "?" for m in mods))


def per_unit_conjugate_module(x, transforms: dict[int, QMatrix], name: str = "") -> OutCycModule:
    """Base change by an invertible matrix at every level, the action of
    every unit conjugated separately."""
    inv: dict[int, QMatrix] = {}
    for n in x.support:
        t = transforms[n]
        ti = solve_matrix(t, QMatrix.identity(t.rows))
        if ti is None or t.rows != t.cols or t.rows != x.dim(n):
            raise ValueError(f"transform at level {n} is not invertible of the right size")
        inv[n] = ti
    actions = {n: {l: transforms[n] @ x.action(n, l) @ inv[n] for l in units(n)}
               for n in x.support}
    restrictions = {(a, b): transforms[b] @ x.restriction_step(a, b) @ inv[a]
                    for a, b in x.support.covering_pairs()}
    return OutCycModule(x.support, dict(x.dims), actions, restrictions,
                        name=name or f"conj({x.name})")


def _induced_on_subspace(basis_n: QMatrix, basis_m: QMatrix, carrier: QMatrix) -> QMatrix:
    """The unique matrix X with basis_m @ X == carrier @ basis_n."""
    x = solve_matrix(basis_m, carrier @ basis_n)
    if x is None:
        raise ValueError("carrier does not preserve the subspace")
    return x


def per_unit_morphism_factor(f) -> MorphismFactorization:
    """Levelwise kernel, image and cokernel, every induced action solved
    separately at every unit."""
    src, tgt = f.source, f.target
    support = src.support

    ker_basis = {n: kernel_basis(f.mats[n]) for n in support}
    img_data = {n: column_space_basis(f.mats[n]) for n in support}
    cok_data = {n: cokernel(f.mats[n]) for n in support}

    def sub_module(bases: dict[int, QMatrix], ambient: OutCycModule, name: str) -> OutCycModule:
        dims = {n: bases[n].cols for n in support}
        actions = {n: {l: _induced_on_subspace(bases[n], bases[n], ambient.action(n, l))
                       for l in units(n)} for n in support}
        restrictions = {(a, b): _induced_on_subspace(bases[a], bases[b],
                                                     ambient.restriction_step(a, b))
                        for a, b in support.covering_pairs()}
        return OutCycModule(support, dims, actions, restrictions, name=name)

    kernel_mod = sub_module(ker_basis, src, f"ker({src.name}->{tgt.name})")
    image_mod = sub_module({n: img_data[n][0] for n in support}, tgt,
                           f"im({src.name}->{tgt.name})")

    def quotient_induced(p_n: QMatrix, p_m: QMatrix, carrier: QMatrix) -> QMatrix:
        x = solve_matrix(p_n.transpose(), (p_m @ carrier).transpose())
        if x is None:
            raise ValueError("carrier does not descend to the quotient")
        return x.transpose()

    cok_dims = {n: cok_data[n][1] for n in support}
    cok_actions = {n: {l: quotient_induced(cok_data[n][0], cok_data[n][0],
                                           tgt.action(n, l))
                       for l in units(n)} for n in support}
    cok_restrictions = {(a, b): quotient_induced(cok_data[a][0], cok_data[b][0],
                                                 tgt.restriction_step(a, b))
                        for a, b in support.covering_pairs()}
    cokernel_mod = OutCycModule(support, cok_dims, cok_actions, cok_restrictions,
                                name=f"coker({src.name}->{tgt.name})")

    src_to_img = {}
    for n in support:
        x = solve_matrix(img_data[n][0], f.mats[n])
        assert x is not None
        src_to_img[n] = x

    return MorphismFactorization(
        kernel=kernel_mod,
        kernel_inclusion=ModuleMorphism(kernel_mod, src, ker_basis),
        image=image_mod,
        image_inclusion=ModuleMorphism(image_mod, tgt, {n: img_data[n][0] for n in support}),
        source_to_image=ModuleMorphism(src, image_mod, src_to_img),
        cokernel=cokernel_mod,
        cokernel_projection=ModuleMorphism(tgt, cokernel_mod,
                                           {n: cok_data[n][0] for n in support}),
    )


# --- the Hom routes as two-stage and dense solves

def fraction_hom_rows(x: OutCycModule, y: OutCycModule) -> list[dict[int, Fraction]]:
    """The rows of ``hom_direct``'s system read from the stored matrices in
    Fraction arithmetic, in its order: Y(g) f_n - f_n X(g) for each
    generator g of units(n), levels in support order, then
    R_y f_n - f_m R_x for each covering pair (n, m); the entry (i, j) of
    left f_a - f_b right is one row, f_a and f_b stored row-major."""
    offsets, total = {}, 0
    for n in x.support:
        offsets[n] = total
        total += x.dim(n) * y.dim(n)
    squares = [(y.action(n, g), n, x.action(n, g), n)
               for n in x.support if x.dim(n) * y.dim(n) for g in units(n).generators()]
    squares += [(y.restriction_step(n, m), n, x.restriction_step(n, m), m)
                for n, m in x.support.covering_pairs()]
    rows = []
    for left, a, right, b in squares:
        oa, ob, da, db = offsets[a], offsets[b], right.cols, right.rows
        for i in range(left.rows):
            for j in range(right.cols):
                row = {oa + s * da + j: left[i, s] for s in range(left.cols) if left[i, s]}
                for t in range(right.rows):
                    if right[t, j]:
                        k = ob + i * db + t
                        row[k] = row.get(k, F0) - right[t, j]
                rows.append(row)
    return rows


def equivariant_basis(x: OutCycModule, y: OutCycModule, n: int) -> QMatrix:
    """Columns spanning the equivariant maps x(n) -> y(n), as row-major
    flattened matrices.

    The null space of the stacked sparse rows of Y(g) f - f X(g) over the
    generators g of units(n), in the reduced basis of ``reduce_kernel``.
    Commuting with the generators is the same as commuting with every
    unit: for valid modules both actions are multiplicative, so a map that
    commutes with two units commutes with their product.
    """
    dx, dy = x.dim(n), y.dim(n)
    size = dx * dy
    if size == 0:
        return QMatrix.zeros(size, 0)
    rows: list[dict[int, Fraction]] = []
    for g in units(n).generators():
        ax, ay = x.action(n, g), y.action(n, g)
        ay_rows = [[(s, v) for s, v in enumerate(ay.row(i)) if v] for i in range(dy)]
        ax_cols = [[(t, v) for t, v in enumerate(ax.col(j)) if v] for j in range(dx)]
        for i in range(dy):
            for j in range(dx):
                # entry (i, j): sum_s Y[i,s] f[s,j] - sum_t f[i,t] X[t,j]
                row = {s * dx + j: v for s, v in ay_rows[i]}
                for t, v in ax_cols[j]:
                    k = i * dx + t
                    row[k] = row.get(k, F0) - v
                rows.append(row)
    vecs, _ = reduce_kernel(rows, size)
    basis = QMatrix.zeros(size, len(vecs))
    for k, vec in enumerate(vecs):
        for i, v in vec.items():
            basis[i, k] = v
    return basis


def _unvec(v, rows: int, cols: int) -> QMatrix:
    return QMatrix(rows, cols, list(v))


def scaled_sum_hom_direct(x, y) -> HomSpace:
    """The equivariance + naturality solve in two stages: an equivariant
    basis per level, then the dense naturality system in its coordinates,
    each basis morphism rebuilt as a sum of scaled equivariant basis
    matrices, one per coefficient."""
    if x.support != y.support:
        raise ValueError("support mismatch")
    support = x.support
    levels = list(support)
    eq_bases = {n: equivariant_basis(x, y, n) for n in levels}
    offsets: dict[int, int] = {}
    total = 0
    for n in levels:
        offsets[n] = total
        total += eq_bases[n].cols

    rows: list[list[Fraction]] = []
    for n, m in support.covering_pairs():
        res_x = x.restriction_step(n, m)
        res_y = y.restriction_step(n, m)
        dxn, dyn = x.dim(n), y.dim(n)
        dxm, dym = x.dim(m), y.dim(m)
        block_rows = dym * dxn
        if block_rows == 0:
            continue
        block = [[F0] * total for _ in range(block_rows)]
        bn = eq_bases[n]
        for k in range(bn.cols):
            f_n = _unvec(bn.col(k), dyn, dxn)
            contrib = res_y @ f_n
            col = offsets[n] + k
            for r, v in enumerate(flat_entries(contrib)):
                if v:
                    block[r][col] = v
        bm = eq_bases[m]
        for k in range(bm.cols):
            f_m = _unvec(bm.col(k), dym, dxm)
            contrib = f_m @ res_x
            col = offsets[m] + k
            for r, v in enumerate(flat_entries(contrib)):
                if v:
                    block[r][col] -= v
        rows.extend(block)

    system = QMatrix.from_rows(rows, cols=total)
    coeffs = kernel_basis(system)
    basis = []
    for k in range(coeffs.cols):
        mats = {}
        for n in levels:
            bn = eq_bases[n]
            acc = QMatrix.zeros(y.dim(n), x.dim(n))
            for j in range(bn.cols):
                c = coeffs[offsets[n] + j, k]
                if c:
                    acc = acc + _unvec(bn.col(j), y.dim(n), x.dim(n)).scale(c)
            mats[n] = acc
        basis.append(ModuleMorphism(x, y, mats))
    return HomSpace(x, y, basis)


def dense_limit_basis(d: InverseSystem) -> list[dict[int, list[Fraction]]]:
    """The inverse limit as the dense kernel of the compatibility system:
    one row per coordinate of D(n) and covering pair (n, m)."""
    levels = list(d.support)
    offsets: dict[int, int] = {}
    total = 0
    for n in levels:
        offsets[n] = total
        total += d.dim(n)
    rows: list[list[Fraction]] = []
    for n, m in d.support.covering_pairs():
        step = d.structure_step(n, m)  # D(m) -> D(n)
        for i in range(d.dim(n)):
            row = [F0] * total
            row[offsets[n] + i] = F1
            for j in range(d.dim(m)):
                v = step[i, j]
                if v:
                    row[offsets[m] + j] -= v
            rows.append(row)
    system = QMatrix.from_rows(rows, cols=total)
    kb = kernel_basis(system)
    out = []
    for k in range(kb.cols):
        fam = {n: [kb[offsets[n] + i, k] for i in range(d.dim(n))] for n in levels}
        out.append(fam)
    return out


def eliminating_sequential_lim1(dims: Sequence[int], maps: Sequence[QMatrix]) -> TowerReport:
    """lim and lim^1 of a finite tower by eliminating its difference map.

    maps[k] is D_{k+1} -> D_k; the map sends (x_0, ..., x_K) to the
    differences (x_k - maps[k] x_{k+1}) for k < K.  lim is its kernel and
    lim^1 its cokernel, both read from one rank; the Mittag-Leffler flag is
    whether every map is onto.  ``hom_ext.sequential_lim1`` returns the
    closed form; this is the elimination it replaced.
    """
    offsets = [sum(dims[:k]) for k in range(len(dims) + 1)]
    total_src = offsets[-1]
    total_tgt = total_src - dims[-1]
    rows: list[dict[int, Entry]] = []
    for k, m in enumerate(maps):
        for i, s_row in enumerate(m.data):
            row: dict[int, Entry] = {offsets[k + 1] + j: -v for j, v in s_row.items()}
            row[offsets[k] + i] = F1
            rows.append(row)
    r = rank(QMatrix.from_row_dicts(rows, total_src))
    ml = all(rank(m) == dims[k] for k, m in enumerate(maps))
    return TowerReport(lim_dim=total_src - r, lim1_dim=total_tgt - r, mittag_leffler=ml)


# --- the monomial rewriting that MonomialReducer's CRT basis and fused
# --- rescale-and-reduce kernel replaced

class ReferenceMonomialReducer(MonomialReducer):
    """``MonomialReducer`` with the simple paths the fast ones replaced:
    the basis found by testing every exponent below n, ``reduce_sparse``
    one ``reduce_exponent`` call per term, and ``act_unit`` and
    ``inflate_from`` building the rescaled vector before reducing it.
    ``reduce_exponent`` and ``columns`` are inherited, and the inherited
    ``mul_sparse`` reduces through this ``reduce_sparse``."""

    def __init__(self, n: int):
        self.n = n
        self.factors = [(p, p ** k, p ** (k - 1), n // p) for p, k in factorization(n)]
        basis = [e for e in range(n)
                 if all(e % pk >= bound for _, pk, bound, _ in self.factors)]
        self.basis = tuple(basis)
        self.basis_index = {e: i for i, e in enumerate(basis)}
        self._cache = {}

    def reduce_sparse(self, vec: dict[int, Entry]) -> dict[int, Entry]:
        out: dict[int, Entry] = {}
        for e, c in vec.items():
            if not c:
                continue
            for b, s in self.reduce_exponent(e % self.n).items():
                v = out.get(b, 0) + (c if s == 1 else -c if s == -1 else c * s)
                if v:
                    out[b] = v
                elif b in out:
                    del out[b]
        return out

    def act_unit(self, l: int, vec: dict[int, Entry]) -> dict[int, Entry]:
        return self.reduce_sparse({(e * l) % self.n: c for e, c in vec.items()})

    def inflate_from(self, sub: MonomialReducer, vec: dict[int, Entry]) -> dict[int, Entry]:
        step = self.n // sub.n
        return self.reduce_sparse({(e * step) % self.n: c for e, c in vec.items()})


@lru_cache(maxsize=None)
def _monomial_reducer(n: int) -> ReferenceMonomialReducer:
    return ReferenceMonomialReducer(n)


# --- the normal-basis pipeline in Fraction arithmetic: every classifier
# --- element, orbit column and naturality sum carries its rational scale

def fraction_classifier(p: int, k: int, scaled: bool) -> dict[int, Fraction]:
    """The reduced (optionally scaled) orbit sum at p^k, Fraction valued."""
    if k == 0:
        return _monomial_reducer(1).reduce_sparse({0: F1})
    n = p ** k
    coeff = Fraction(-1, p ** (k - 1)) if scaled else F1
    return _monomial_reducer(n).reduce_sparse({pow(p, i, n): coeff for i in range(k)})


def fraction_assemble(support, scaled: bool = True) -> dict[int, dict[int, Fraction]]:
    """Classifier elements of every level: the inflated prime-power
    generators multiplied in increasing prime order."""
    elements = {}
    for n in support:
        red = _monomial_reducer(n)
        cur = None
        for p, k in factorization(n):
            lifted = red.inflate_from(_monomial_reducer(p ** k), fraction_classifier(p, k, scaled))
            cur = lifted if cur is None else red.mul_sparse(cur, lifted)
        elements[n] = cur if cur is not None else red.reduce_sparse({0: F1})
    return elements


def fraction_phi_columns(x: dict[int, Fraction], n: int) -> dict[int, dict[int, Fraction]]:
    red = _monomial_reducer(n)
    return {g: red.act_unit(g, x) for g in units(n)}


def fraction_columns_to_matrix(n: int, cols) -> QMatrix:
    basis = _monomial_reducer(n).basis
    return QMatrix.from_columns([[cols[g].get(e, F0) for e in basis] for g in units(n)],
                                rows=len(basis))


def fraction_check_rank(n: int, cols) -> bool:
    red = _monomial_reducer(n)
    rows = [{red.basis_index[e]: c for e, c in col.items()} for col in cols.values()]
    return rank(QMatrix.from_row_dicts(rows, red.dim)) == totient(n)


def fraction_check_equivariance(n: int, cols) -> bool:
    """The generators of units(n) move every orbit column to its place."""
    red = _monomial_reducer(n)
    un = units(n)
    return all(red.act_unit(l, cols[g]) == cols[un.mul(l, g)]
               for l in un.generators() for g in un)


def per_unit_check_naturality(n: int, m: int, ratio: Fraction, cols_n, cols_m) -> int | None:
    """The first unit g of level n at which a times the inflated column of
    g differs from b times the sum of the level-m columns over the fiber of
    g, where ratio = a/b in lowest terms: ``_check_naturality`` of
    normal_basis.py at every unit, not at 1 alone."""
    a, b = ratio.numerator, ratio.denominator
    red_n, red_m = _monomial_reducer(n), _monomial_reducer(m)
    _, fibers = unit_reduction(m, n)
    for g in units(n):
        lhs = red_m.inflate_from(red_n, cols_n[g])
        rhs: dict[int, Entry] = {}
        for gt in fibers[g]:
            for e, c in cols_m[gt].items():
                v = rhs.get(e, 0) + c
                if v:
                    rhs[e] = v
                elif e in rhs:
                    del rhs[e]
        if len(lhs) != len(rhs) or any(a * c != b * rhs.get(e, 0) for e, c in lhs.items()):
            return g
    return None


def per_unit_squares(family) -> list[SquareCheck]:
    """The covering squares of a ``ClassifierFamily``, each checked at
    every unit of its source level, on orbit columns of the reference
    reducer."""
    scales = family.scales
    cols = {n: fraction_phi_columns(family.vectors[n], n) for n in family.support}
    out = []
    for n, m in family.support.covering_pairs():
        bad = per_unit_check_naturality(n, m, scales[n] / scales[m], cols[n], cols[m])
        out.append(SquareCheck(n, m, bad is None, bad))
    return out


def fraction_classifier_report(support, scaled: bool = True):
    """(level matrices, level checks, square checks) of the family, every
    value a Fraction."""
    elements = fraction_assemble(support, scaled)
    cols = {n: fraction_phi_columns(elements[n], n) for n in support}
    mats = {n: fraction_columns_to_matrix(n, cols[n]) for n in support}
    levels = [LevelCheck(n, totient(n), fraction_check_rank(n, cols[n]),
                         fraction_check_equivariance(n, cols[n]))
              for n in support]
    squares = []
    for n, m in support.covering_pairs():
        bad = per_unit_check_naturality(n, m, F1, cols[n], cols[m])
        squares.append(SquareCheck(n, m, bad is None, bad))
    return mats, levels, squares


# --- the canonical JSON writer that serialize.dumps_canonical replaced

def reference_dumps_canonical(obj) -> str:
    """The standard library's indenting encoder, with sorted keys."""
    return json.dumps(obj, sort_keys=True, indent=2)
