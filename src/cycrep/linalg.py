"""Exact linear algebra over the rationals.

``QMatrix`` is the package's one matrix type.  It stores one
``{col: value}`` dict per row, its ``data``, with exact ``int`` or
``Fraction`` values and no zero ever stored: the structure maps of the
cyclic-group site are monomial (permutations, fiber sums), and the cochain
differentials are a few percent nonzero, so almost every matrix here is
mostly zeros.  Reads (``m[i, j]``, ``row``, ``col``, ``to_rows``) return
``Fraction`` zeros for absent entries, so a caller never sees the storage.
All results are exact; there is no floating point anywhere.  Elimination
clears denominators and runs fraction-free over sparse ``{col: int}`` rows,
which is an order of magnitude faster in CPython than eliminating with
Fraction arithmetic directly.

Conventions, fixed once so matrices are reproducible across runs:

* vectors are columns; a linear map ``V -> W`` is a ``dim W x dim V`` matrix,
* every elimination step is one row update (``_cancel``: cross-multiply,
  drop zeros, divide by the gcd),
* the reduced-form routines (``rref``, ``kernel_basis``, ``sparse_kernel``,
  ``solve_matrix``, ``column_space_basis``, ``cokernel``) share one loop,
  ``_reduce``: pivot columns in increasing order, as the reduced form
  requires, and within each the row with the fewest nonzeros.  The reduced
  row echelon form is unique, so the bases they return do not depend on
  that choice,
* ``sparse_kernel`` presolves before that loop: a row a x_p + b x_q = 0
  merges the classes of p and q by union-find, a one-term row forces its
  class to zero, longer rows are rewritten over the class roots (each the
  largest column of its class) until none shrinks to one or two terms, and
  ``_reduce`` runs on what is left (the doubleton reduction of Andersen and
  Andersen, "Presolving in linear programming", Math. Programming 71,
  1995).  The Hom systems are mostly such rows,
* ``rank`` alone pivots by the Markowitz rule: the column with the fewest
  nonzeros (lowest index on ties), then the row in it with the fewest
  nonzeros (lowest index on ties),
* tensor products use the lexicographic pairing of basis indices,
* matrices with 0 rows or 0 columns are legal and arise constantly.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Rat = Fraction

RatLike = Union[int, str, Fraction]
Entry = Union[int, Fraction]  # a stored QMatrix value
IntView = tuple[int, list[list[tuple[int, int]]]]  # (den, integer rows): _int_matrix

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x: RatLike) -> Fraction:
    """Coerce an int, "a/b" string, or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_to_str(q: Entry) -> str:
    """Canonical string form: "a/b" with b > 0, or "a" when b == 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class QMatrix:
    """Matrix of exact rationals, stored by sparse rows.

    ``data[i]`` is row i as a ``{col: value}`` dict; values are ``int`` or
    ``Fraction`` and never zero.  ``from_row_dicts`` takes such dicts as
    given; every other constructor coerces its entries through ``rat``.
    ``m[i, j] = v`` fills a matrix in place (a zero ``v`` removes the
    entry); once a matrix has been handed on it must not be written.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable[RatLike]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        e = [rat(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.rows = rows
        self.cols = cols
        self.data = [{j: v for j, v in enumerate(e[i * cols:(i + 1) * cols]) if v}
                     for i in range(rows)]

    # construction helpers

    @classmethod
    def from_row_dicts(cls, data: list[dict[int, Entry]], cols: int) -> "QMatrix":
        """The matrix whose row i is ``data[i]``, a ``{col: value}`` dict of
        nonzero ``int`` or ``Fraction`` values.  The dicts are taken as
        given, not copied or checked."""
        m = cls.__new__(cls)
        m.rows = len(data)
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[RatLike]], cols: Optional[int] = None) -> "QMatrix":
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
    def identity(cls, n: int) -> "QMatrix":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return cls.from_row_dicts([{i: _ONE} for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls.from_row_dicts([{} for _ in range(rows)], cols)

    @classmethod
    def column(cls, values: Sequence[RatLike]) -> "QMatrix":
        return cls(len(values), 1, values)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[RatLike]], rows: Optional[int] = None) -> "QMatrix":
        if not columns:
            return cls(0 if rows is None else rows, 0, [])
        if rows is None:
            rows = len(columns[0])
        if any(len(col) != rows for col in columns):
            raise ValueError("ragged columns")
        return cls.from_rows(columns, cols=rows).transpose()

    # accessors

    def __getitem__(self, ij: tuple[int, int]) -> Entry:
        i, j = ij
        return self.data[i].get(j, _ZERO)

    def __setitem__(self, ij: tuple[int, int], v: Entry) -> None:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry {ij} outside a {self.rows}x{self.cols} matrix")
        if v:
            self.data[i][j] = v
        else:
            self.data[i].pop(j, None)

    def row(self, i: int) -> list[Entry]:
        out: list[Entry] = [_ZERO] * self.cols
        for j, v in self.data[i].items():
            out[j] = v
        return out

    def col(self, j: int) -> list[Entry]:
        return [r.get(j, _ZERO) for r in self.data]

    def column_vector(self, j: int) -> "QMatrix":
        return QMatrix.from_row_dicts([{0: r[j]} if j in r else {} for r in self.data], 1)

    def to_rows(self) -> list[list[Entry]]:
        return [self.row(i) for i in range(self.rows)]

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # algebra

    def transpose(self) -> "QMatrix":
        data: list[dict[int, Entry]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, v in r.items():
                data[j][i] = v
        return QMatrix.from_row_dicts(data, self.rows)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} @ {other.shape()}")
        b = other.data
        out = []
        for r in self.data:
            acc: dict[int, Entry] = {}
            get = acc.get
            for t, v in r.items():
                for j, w in b[t].items():
                    x = get(j)
                    acc[j] = v * w if x is None else x + v * w
            out.append({j: x for j, x in acc.items() if x})
        return QMatrix.from_row_dicts(out, other.cols)

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Matrix times column vector, returned as a plain list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.data:
            s = _ZERO
            for j, w in r.items():
                v = vec[j]
                if v:
                    s += w * v
            out.append(s)
        return out

    def _plus(self, other: "QMatrix", sign: int, what: str) -> "QMatrix":
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch in {what}")
        out = []
        for r, o in zip(self.data, other.data):
            s = dict(r)
            for j, v in o.items():
                x = s.get(j, 0) + sign * v
                if x:
                    s[j] = x
                else:
                    del s[j]
            out.append(s)
        return QMatrix.from_row_dicts(out, self.cols)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._plus(other, -1, "subtraction")

    def __neg__(self) -> "QMatrix":
        return QMatrix.from_row_dicts([{j: -v for j, v in r.items()} for r in self.data],
                                      self.cols)

    def scale(self, c: RatLike) -> "QMatrix":
        c = rat(c)
        if not c:
            return QMatrix.zeros(self.rows, self.cols)
        return QMatrix.from_row_dicts([{j: c * v for j, v in r.items()} for r in self.data],
                                      self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.data)))

    def is_zero(self) -> bool:
        return not any(self.data)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(filter(None, map(dict.get, self.data, range(self.rows))), _ZERO)

    def __repr__(self) -> str:
        if self.rows * self.cols > 64:
            return f"QMatrix({self.rows}x{self.cols}, {sum(map(len, self.data))} nonzeros)"
        body = "; ".join(" ".join(rat_to_str(v) for v in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def hstack(*mats: QMatrix) -> QMatrix:
    if not mats:
        raise ValueError("nothing to stack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    out: list[dict[int, Entry]] = [{} for _ in range(rows)]
    off = 0
    for m in mats:
        for row, r in zip(out, m.data):
            for j, v in r.items():
                row[off + j] = v
        off += m.cols
    return QMatrix.from_row_dicts(out, off)


# ---------------------------------------------------------------------------
# sparse fraction-free elimination core
# ---------------------------------------------------------------------------

def _int_row(nz: Iterable[tuple[int, Fraction]]) -> dict[int, int]:
    """Nonzero ``(col, Fraction)`` pairs as a ``{col: int}`` row, scaled by
    the lcm of the denominators; the row's span is unchanged."""
    nz = list(nz)
    den = 1
    for _, v in nz:
        d = v.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return {j: v.numerator for j, v in nz}
    return {j: v.numerator * (den // v.denominator) for j, v in nz}


def _int_matrix(a: QMatrix) -> IntView:
    """A matrix as (den, rows of (col, int)) with den times it integral, den
    the lcm of its denominators: the integer view of its stored entries."""
    den = lcm(*{v.denominator for row in a.data for v in row.values()})
    if den == 1:
        return 1, [[(j, v.numerator) for j, v in row.items()] for row in a.data]
    return den, [[(j, v.numerator * (den // v.denominator)) for j, v in row.items()]
                 for row in a.data]


def _int_vecmat(vec: Iterable[tuple[int, int]],
                rows: list[list[tuple[int, int]]]) -> dict[int, int]:
    """The nonzeros of the row vector ``vec``, given by its (index, int)
    pairs, times the integer rows of a view."""
    acc: dict[int, int] = {}
    get = acc.get
    for t, v in vec:
        for j, w in rows[t]:
            acc[j] = get(j, 0) + v * w
    return {j: x for j, x in acc.items() if x}


def _int_products_equal(a: IntView, b: IntView, c: IntView, d: IntView) -> bool:
    """Whether a @ b == c @ d, for integer views of conforming matrices:
    each side's integer product, scaled by the other side's denominators."""
    (da, a_rows), (db, b_rows), (dc, c_rows), (dd, d_rows) = a, b, c, d
    left, right = dc * dd, da * db
    g = gcd(left, right)
    left //= g
    right //= g
    if len(a_rows) != len(c_rows):
        return False
    for ar, cr in zip(a_rows, c_rows):
        if left != 1:
            ar = [(t, left * v) for t, v in ar]
        if right != 1:
            cr = [(t, right * v) for t, v in cr]
        if _int_vecmat(ar, b_rows) != _int_vecmat(cr, d_rows):
            return False
    return True


def _sparse_int_rows(m: QMatrix) -> list[dict[int, int]]:
    """The nonzero rows of ``m`` as ``{col: int}`` dicts, denominators cleared."""
    return [_int_row(r.items()) for r in m.data if r]


def _cancel(row: dict[int, int], prow: dict[int, int], c: int,
            cols: Optional[dict[int, set[int]]] = None, i: int = -1) -> None:
    """Clear column ``c`` of ``row`` with the pivot row ``prow``, in place.

    The update is fraction-free: ``row := a * row - b * prow`` with
    ``a / b == prow[c] / row[c]`` in lowest terms and ``a > 0``.  Entries
    that cancel are dropped, and the row is divided by the gcd of what
    remains.  When a column index ``cols`` is given, ``row`` is its row
    ``i`` and the index follows every entry that appears or cancels.  It is
    the one sparse elimination update in the package.
    """
    pval = prow[c]
    v = row[c]
    g = gcd(pval, v)
    a = pval // g
    b = v // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for j in row:
            row[j] *= a
    get = row.get
    for j, w in prow.items():
        x = get(j)
        if x is None:
            row[j] = -b * w
            if cols is not None:
                cols[j].add(i)
        else:
            x -= b * w
            if x:
                row[j] = x
            else:
                del row[j]
                if cols is not None:
                    cols[j].discard(i)
    if row:
        g = gcd(*row.values())
        if g > 1:
            for j in row:
                row[j] //= g


def _column_index(rows: list[dict[int, int]]) -> dict[int, set[int]]:
    """For every column, the rows that are nonzero there."""
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
    return cols


def rank(m: QMatrix) -> int:
    """Rank by fraction-free elimination over sparse integer rows.

    Each step pivots on the column with the fewest nonzeros, at its row
    with the fewest nonzeros (lowest index on either tie), clears that
    column from the other rows and drops the pivot row.  Choosing sparse
    pivots keeps the fill-in, and so the work, small on the sparse cochain
    matrices where rank dominates.
    """
    rows = _sparse_int_rows(m)
    cols = _column_index(rows)
    # (count, col) entries; an entry is current while its count matches
    heap = [(len(s), j) for j, s in cols.items()]
    heapify(heap)
    r = 0
    while heap:
        count, c = heappop(heap)
        below = cols.get(c)
        if below is None or len(below) != count:
            continue
        p = min(below, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        for j in prow:
            cols[j].discard(p)
        for i in list(below):
            _cancel(rows[i], prow, c, cols, i)
        r += 1
        for j in prow:
            s = cols.get(j)
            if s:
                heappush(heap, (len(s), j))
            elif s is not None:
                del cols[j]
    return r


def _reduce(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of sparse integer rows, in place.

    Returns ``{pivot column: its row}`` in increasing column order; every
    other row is cleared at every pivot column.  Pivot columns are taken in
    increasing order, as the reduced form requires; within a column the
    pivot is its row with the fewest nonzeros (lowest index on ties).  The
    reduced row echelon form is unique, so that choice changes the work,
    not the result.  Pivot rows are not scaled: divide by the pivot entry.
    """
    cols = _column_index(rows)
    pivots: dict[int, dict[int, int]] = {}
    pivoted: set[int] = set()
    # fill-in lands only on columns some row starts with, so the initial
    # column set is every column that can ever be pivoted
    for c in sorted(cols):
        hit = cols[c]
        cand = [i for i in hit if i not in pivoted]
        if not cand:
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        # clearing the earlier pivot rows as well leaves the reduced form
        for i in [i for i in hit if i != p]:
            _cancel(rows[i], prow, c, cols, i)
        pivots[c] = prow
        pivoted.add(p)
    return pivots


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns in increasing order."""
    pivots = _reduce(_sparse_int_rows(m))
    data: list[dict[int, Entry]] = [{j: Fraction(v, prow[c]) for j, v in prow.items()}
                                    for c, prow in pivots.items()]
    data.extend({} for _ in range(m.rows - len(data)))
    return QMatrix.from_row_dicts(data, m.cols), list(pivots)


def _kernel_vectors(pivots: dict[int, dict[int, int]],
                    columns: Iterable[int]) -> tuple[list[dict[int, Entry]], list[int]]:
    """The reduced kernel basis read off ``_reduce``'s pivot rows, and the
    free columns in increasing order: the vector for free column ``j`` has a
    1 at ``j`` and its other nonzeros at pivot columns, in increasing order.
    An entry is an ``int`` when it is integral (the free 1 included), a
    ``Fraction`` otherwise.  ``columns`` are the columns of the system, in
    increasing order."""
    free = [j for j in columns if j not in pivots]
    basis: dict[int, dict[int, Entry]] = {j: {j: 1} for j in free}
    for c, prow in pivots.items():
        pv = prow[c]
        for j, v in prow.items():
            if j != c:
                q, r = divmod(-v, pv)
                basis[j][c] = Fraction(-v, pv) if r else q
    return [basis[j] for j in free], free


def _exact(x: Entry) -> Entry:
    """An integral ``Fraction`` as its ``int``; anything else as it is."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _ratio(a: Entry, b: Entry) -> Entry:
    """a / b, an ``int`` exactly when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(Fraction(a) / b)


class _Classes:
    """Union-find over columns for the presolve of ``sparse_kernel``.

    Every column lies in a class whose members are multiples of its root,
    the largest column of the class: ``up`` maps each column p that is not
    a root to (c, f), c a larger column of its class and x_p = f x_c, and
    the roots in ``zero`` are those of the classes forced to zero.  Factors
    are never zero, and an ``int`` exactly where they are integral.
    """

    __slots__ = ("up", "zero")

    def __init__(self) -> None:
        self.up: dict[int, tuple[int, Entry]] = {}
        self.zero: set[int] = set()

    def find(self, p: int) -> tuple[int, Entry]:
        """(root, f) with x_p = f x_root; compresses the path it walks."""
        up = self.up
        step = up.get(p)
        if step is None:
            return p, 1
        q = step[0]
        if q not in up:
            return step
        path = [p]
        while q in up:
            path.append(q)
            q = up[q][0]
        f: Entry = 1
        for c in reversed(path):
            f = _exact(up[c][1] * f)
            up[c] = (q, f)
        return q, f

    def add(self, nz: list[tuple[int, Entry]]) -> None:
        """Impose a row of one or two nonzero (col, value) terms: a one-term
        row forces its class to zero, and a two-term row merges the classes
        of its ends, or forces their shared class to zero when the row is
        not a multiple of the relation that class already imposes."""
        zero = self.zero
        if len(nz) == 1:
            zero.add(self.find(nz[0][0])[0])
            return
        (p, a), (q, b) = nz
        rp, fp = self.find(p)
        rq, fq = self.find(q)
        if rp in zero or rq in zero:
            zero.add(rp)
            zero.add(rq)
            return
        a *= fp
        b *= fq
        if rp == rq:
            if a + b:
                zero.add(rp)
        elif rp < rq:
            self.up[rp] = (rq, _ratio(-b, a))
        else:
            self.up[rq] = (rp, _ratio(-a, b))

    def substitute(self, row: dict[int, int]) -> list[tuple[int, Entry]]:
        """The nonzero terms of a row over the roots of the classes that are
        not zero."""
        find, zero = self.find, self.zero
        acc: dict[int, Entry] = {}
        get = acc.get
        for j, v in row.items():
            r, f = find(j)
            if r not in zero:
                acc[r] = get(r, 0) + v * f
        return [(j, v) for j, v in acc.items() if v]


def sparse_kernel(rows: Iterable[dict[int, Entry]],
                  ncols: int) -> tuple[list[dict[int, Entry]], list[int]]:
    """Reduced basis of the null space of a matrix given by sparse rows.

    ``rows`` are ``{col: value}`` dicts over ``ncols`` columns, as in a
    ``QMatrix``'s ``data``, in any iterable; zero values are skipped.
    Returns the basis vectors as ``{index: int or Fraction}`` dicts and the
    free columns, as ``_kernel_vectors`` describes.

    Rows of one or two terms are solved first, by union-find
    (``_Classes``), and never stored: a x_p + b x_q = 0 makes x_p a
    multiple of x_q, and a x_p = 0 makes x_p zero.  The longer rows are
    rewritten over the class roots, which may shrink some of them to one or
    two terms in turn, until none shrinks, and identical rows are kept once;
    ``_reduce`` eliminates what is left over the roots of the classes not
    forced to zero, and each root's value goes to the members of its class.
    A root is its class's largest column, so a member of a class is a pivot
    column and every free column is a root: the expanded vectors are the
    reduced basis of the whole system.  Without rows of one or two terms,
    the rows go to ``_reduce`` as they are.
    """
    classes = _Classes()
    kept: list[dict[int, int]] = []
    for row in rows:
        nz = [(j, v) for j, v in row.items() if v]
        if len(nz) > 2:
            kept.append(_int_row(nz))
        elif nz:
            classes.add(nz)
    up, zero = classes.up, classes.zero
    if not up and not zero:
        return _kernel_vectors(_reduce(kept), range(ncols))
    shrunk = True
    while shrunk:
        shrunk = False
        rest: dict[frozenset[tuple[int, int]], dict[int, int]] = {}
        for row in kept:
            if any(j in up or j in zero for j in row):
                nz = classes.substitute(row)
                if len(nz) < 3:
                    if nz:
                        classes.add(nz)
                        shrunk = True
                    continue
                row = _int_row(nz)
            rest[frozenset(row.items())] = row
        kept = list(rest.values())
    vecs, free = _kernel_vectors(
        _reduce(kept), [j for j in range(ncols) if j not in up and j not in zero])
    members: dict[int, list[tuple[int, Entry]]] = {}
    for p in list(up):
        r, f = classes.find(p)
        if r not in zero:
            members.setdefault(r, []).append((p, f))
    out = []
    for vec, j in zip(vecs, free):
        terms = [(r, v) for r, v in vec.items() if r != j]
        for r, v in vec.items():
            for p, f in members.get(r, ()):
                terms.append((p, _exact(f * v)))
        terms.sort()
        x: dict[int, Entry] = {j: 1}
        x.update(terms)
        out.append(x)
    return out, free


def kernel_basis(m: QMatrix) -> QMatrix:
    """Columns form a basis of the null space of ``m``.

    The basis is in reduced form: the vector for free column ``j`` has a 1
    in coordinate ``j``, its other nonzero coordinates sit at pivot columns.
    """
    vecs, _ = _kernel_vectors(_reduce(_sparse_int_rows(m)), range(m.cols))
    return QMatrix.from_row_dicts(vecs, m.cols).transpose()


def solve(m: QMatrix, b: Union[QMatrix, Sequence[RatLike]]) -> Optional[QMatrix]:
    """A witness ``x`` with ``m @ x == b``, or None when inconsistent."""
    if not isinstance(b, QMatrix):
        b = QMatrix.column(list(b))
    if b.rows != m.rows or b.cols != 1:
        raise ValueError("right-hand side has wrong shape")
    return solve_matrix(m, b)


def solve_matrix(a: QMatrix, b: QMatrix) -> Optional[QMatrix]:
    """A witness ``X`` with ``a @ X == b``, or None when inconsistent.

    The witness is read from the b block of the reduced form of
    ``[a | b]``: it is zero at the free columns of ``a``.
    """
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch: {a.shape()} X = {b.shape()}")
    pivots = _reduce(_sparse_int_rows(hstack(a, b)))
    # pivot in the b block means an inconsistent column
    if any(c >= a.cols for c in pivots):
        return None
    out = QMatrix.zeros(a.cols, b.cols)
    shift = a.cols
    for c, prow in pivots.items():
        pv = prow[c]
        out.data[c] = {j - shift: Fraction(v, pv) for j, v in prow.items() if j >= shift}
    return out


def cokernel(m: QMatrix) -> tuple[QMatrix, int]:
    """Projection ``P`` from the codomain of ``m`` with kernel image(m).

    ``P`` has full row rank ``rows(m) - rank(m)``; its rows are a basis of
    the left null space, so ``P @ m == 0`` and ``ker P == im m``.
    """
    p = kernel_basis(m.transpose()).transpose()
    return p, p.rows


def column_space_basis(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """The pivot columns of ``m``: a basis of its column space."""
    pivots = list(_reduce(_sparse_int_rows(m)))
    data = [{k: r[j] for k, j in enumerate(pivots) if j in r} for r in m.data]
    return QMatrix.from_row_dicts(data, len(pivots)), pivots


def kronecker(a: QMatrix, b: QMatrix) -> QMatrix:
    """Tensor product under the lexicographic basis pairing."""
    bc = b.cols
    out = []
    for ra in a.data:
        for rb in b.data:
            out.append({j * bc + l: v * w for j, v in ra.items() for l, w in rb.items()})
    return QMatrix.from_row_dicts(out, a.cols * bc)
