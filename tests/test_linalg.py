from fractions import Fraction

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from cycrep.cyclic_site import support_of_divisors
from cycrep.hom_ext import _hom_cochain
from cycrep.modules import regular_module
from cycrep.linalg import (
    QMatrix,
    cokernel,
    column_space_basis,
    hstack,
    kernel_basis,
    kronecker,
    rank,
    rat,
    rat_to_str,
    rref,
    solve,
    solve_matrix,
    sparse_kernel,
)
from oracles import (DenseQMatrix, dense_kernel_basis, dense_rank, dense_rref_rows,
                     dense_solve_matrix, flat_entries, greedy_resolve, reduce_kernel,
                     stored_values, vstack)

small_entries = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=5, max_cols=7):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(small_entries, min_size=r * c, max_size=r * c).map(
                lambda e: QMatrix(r, c, e))))


class TestRref:
    def test_identity(self):
        r, piv = rref(QMatrix.identity(3))
        assert r == QMatrix.identity(3)
        assert piv == [0, 1, 2]

    def test_proportional_rows(self):
        r, piv = rref(QMatrix.from_rows([[2, 4], [1, 2]]))
        assert r == QMatrix.from_rows([[1, 2], [0, 0]])
        assert piv == [0]

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_idempotent_exactly(self, m):
        r, piv = rref(m)
        r2, piv2 = rref(r)
        assert r == r2 and piv == piv2

    def test_pivot_entries_normalized(self):
        r, piv = rref(QMatrix.from_rows([[0, 3, 1], [0, 0, 5]]))
        for row_idx, col in enumerate(piv):
            assert r[row_idx, col] == 1


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        k = kernel_basis(QMatrix.identity(2))
        assert k.shape() == (2, 0)

    def test_one_relation(self):
        k = kernel_basis(QMatrix.from_rows([[1, 1]]))
        assert k.cols == 1
        v = k.col(0)
        assert v[0] == -v[1] != 0

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_nullity_and_annihilation(self, m):
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        assert k.cols == m.cols - rank(m)
        assert rank(k) == k.cols  # columns independent


class TestSolve:
    def test_identity(self):
        x = solve(QMatrix.identity(2), [3, 5])
        assert x == QMatrix.column([3, 5])

    def test_underdetermined_witness(self):
        m = QMatrix.from_rows([[1, 1]])
        x = solve(m, [2])
        assert x is not None and (m @ x) == QMatrix.column([2])

    def test_inconsistent(self):
        assert solve(QMatrix.from_rows([[1], [0]]), [0, 1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(QMatrix.identity(2), [1, 2, 3])

    @settings(max_examples=40, deadline=None)
    @given(matrices(), st.lists(small_entries, min_size=7, max_size=7))
    def test_solutions_verify_by_substitution(self, m, coeffs):
        b = m @ QMatrix.column(coeffs[: m.cols])
        x = solve(m, b)
        assert x is not None and m @ x == b


class TestCokernel:
    def test_zero_matrix(self):
        p, d = cokernel(QMatrix.zeros(2, 2))
        assert p == QMatrix.identity(2) and d == 2

    def test_identity(self):
        p, d = cokernel(QMatrix.identity(2))
        assert d == 0 and p.shape() == (0, 2)

    def test_diagonal_inclusion(self):
        m = QMatrix.from_rows([[1], [1]])
        p, d = cokernel(m)
        assert d == 1 and (p @ m).is_zero() and rank(p) == 1

    @settings(max_examples=50, deadline=None)
    @given(matrices())
    def test_kernel_of_projection_is_image_by_double_inclusion(self, m):
        p, d = cokernel(m)
        assert d == m.rows - rank(m)
        assert (p @ m).is_zero()                      # image inside kernel
        ker_p = kernel_basis(p)
        for j in range(ker_p.cols):                    # kernel inside image
            assert solve(m, ker_p.column_vector(j)) is not None


class TestKronecker:
    def test_identities(self):
        assert kronecker(QMatrix.identity(2), QMatrix.identity(3)) == QMatrix.identity(6)

    def test_scalar_factor(self):
        b = QMatrix.from_rows([[1, 2], [3, 4]])
        assert kronecker(QMatrix.from_rows([[2]]), b) == b.scale(2)

    @settings(max_examples=30, deadline=None)
    @given(matrices(3, 3), matrices(3, 3))
    def test_bilinearity_on_basis_pairs(self, a, b):
        # (A kron B)(e_i kron e_j) == A e_i kron B e_j, lexicographic pairing
        k = kronecker(a, b)
        for i in range(a.cols):
            for j in range(b.cols):
                av, bv = a.col(i), b.col(j)
                tensor = [x * y for x in av for y in bv]
                assert k.col(i * b.cols + j) == tensor


class TestZeroDimensional:
    def test_empty_shapes_compose(self):
        a = QMatrix.zeros(3, 0)
        b = QMatrix.zeros(0, 2)
        assert (a @ b) == QMatrix.zeros(3, 2)
        assert rank(a) == 0
        assert kernel_basis(b).shape() == (2, 2)

    def test_rref_of_empty(self):
        r, piv = rref(QMatrix.zeros(0, 3))
        assert r.shape() == (0, 3) and piv == []


class TestHelpers:
    def test_column_space_basis(self):
        m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        basis, cols = column_space_basis(m)
        assert cols == [0, 2] and rank(basis) == 2

    def test_stacking(self):
        a = QMatrix.identity(2)
        assert hstack(a, a).shape() == (2, 4)
        assert vstack(a, a).shape() == (4, 2)


class TestRationalStrings:
    def test_canonical_forms(self):
        assert rat_to_str(Fraction(3)) == "3"
        assert rat_to_str(Fraction(-4, 6)) == "-2/3"
        assert rat("7/2") == Fraction(7, 2)
        assert rat("-5") == Fraction(-5)

    @settings(max_examples=50, deadline=None)
    @given(st.fractions())
    def test_round_trip(self, q):
        assert rat(rat_to_str(q)) == q


def rational_matrices(entries, max_rows=6, max_cols=7):
    """Matrices with 0 to max rows and columns, including the empty shapes."""
    return st.integers(0, max_rows).flatmap(
        lambda r: st.integers(0, max_cols).flatmap(
            lambda c: st.lists(entries, min_size=r * c, max_size=r * c).map(
                lambda e: QMatrix(r, c, e))))


sparse_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))
huge_fractions = st.one_of(
    st.just(Fraction(0)),
    st.integers(-(1 << 120), 1 << 120).map(Fraction),
    st.fractions(min_value=-(1 << 90), max_value=1 << 90, max_denominator=1 << 60))


@st.composite
def matrices_with_repeated_rows(draw):
    """A small matrix plus scaled copies of some of its rows."""
    m = draw(rational_matrices(sparse_fractions, max_rows=4, max_cols=6))
    rows = m.to_rows()
    if rows:
        for _ in range(draw(st.integers(1, 4))):
            src = rows[draw(st.integers(0, len(rows) - 1))]
            c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
            rows.insert(draw(st.integers(0, len(rows))), [c * v for v in src])
    return QMatrix.from_rows(rows, cols=m.cols)


@lru_cache(maxsize=None)
def hom_cochain_matrices():
    """The differentials of Hom(greedy resolution, regular) over
    divisors(60), to degree 4: hundreds of rows and columns, with a rank
    profile the regular module's minimal resolution, which has no
    differential, cannot give.  Each comes with the rank the Fraction
    oracle gives for it."""
    reg = regular_module(support_of_divisors(60))
    return tuple((d, dense_rank(d)) for d in _hom_cochain(greedy_resolve(reg, 4), reg).diffs)


mixed_entries = st.one_of(
    st.just(0), st.integers(-4, 4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def mixed_storage(draw, entries=sparse_fractions, rows=None, cols=None):
    """A matrix that stores its integral entries as ints, as the cochain
    assembly does, and the same matrix built from its entry list, every
    entry a Fraction; ``rows`` and ``cols`` fix the shape."""
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 7)) if cols is None else cols
    m = QMatrix(r, c, draw(st.lists(entries, min_size=r * c, max_size=r * c)))
    data = [{j: (int(v) if v.denominator == 1 else v) for j, v in r.items()} for r in m.data]
    return QMatrix.from_row_dicts(data, m.cols), m


def sparse_kernel_matrix(m: QMatrix) -> QMatrix:
    """``sparse_kernel`` of a matrix's rows, its basis as columns."""
    basis, _ = sparse_kernel(m.data, m.cols)
    return QMatrix.from_columns([[v.get(i, 0) for i in range(m.cols)] for v in basis],
                                rows=m.cols)


def dense(m: QMatrix) -> DenseQMatrix:
    return DenseQMatrix(m.rows, m.cols, flat_entries(m))


def as_qmatrix(d: DenseQMatrix) -> QMatrix:
    return QMatrix(d.rows, d.cols, d.flat)


def assert_well_formed(m: QMatrix) -> None:
    """One row dict per row, no dict shared by two rows, every stored
    column in range, and no stored zero."""
    assert len(m.data) == m.rows
    assert len({id(r) for r in m.data}) == m.rows
    assert all(0 <= j < m.cols for r in m.data for j in r)
    assert all(stored_values(m))


def assert_matches(m: QMatrix, d: DenseQMatrix) -> None:
    """Every read of ``m`` against the dense reference ``d``."""
    assert_well_formed(m)
    assert m.shape() == d.shape()
    assert m.to_rows() == d.to_rows()
    assert [m.row(i) for i in range(m.rows)] == [d.row(i) for i in range(d.rows)]
    assert [m.col(j) for j in range(m.cols)] == [d.col(j) for j in range(d.cols)]
    assert all(m[i, j] == d[i, j] for i in range(m.rows) for j in range(m.cols))
    assert m == as_qmatrix(d)
    assert m.is_zero() == d.is_zero()


def matmul_keeping_zeros(a: QMatrix, b: QMatrix) -> QMatrix:
    """``QMatrix.__matmul__`` without the step that drops cancelled sums:
    the fault the no-stored-zero invariant exists to catch."""
    out = []
    for r in a.data:
        acc: dict = {}
        for t, v in r.items():
            for j, w in b.data[t].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append(acc)
    return QMatrix.from_row_dicts(out, b.cols)


class TestQMatrixAgainstDenseReference:
    """Every constructor, read and operation of the sparse-row QMatrix
    against the dense reference it replaced, including the empty shapes,
    mixed int and Fraction storage and sums that cancel to zero."""

    def test_degenerate_shapes(self):
        for r, c in [(0, 0), (0, 4), (3, 0), (3, 4)]:
            z = QMatrix.zeros(r, c)
            assert z.shape() == (r, c) and z.is_zero()
            assert_matches(z, DenseQMatrix.zeros(r, c))
            assert rank(z) == 0
            assert sparse_kernel_matrix(z) == kernel_basis(z)
            assert_matches(z.transpose(), DenseQMatrix.zeros(c, r))
        with pytest.raises(ValueError):
            QMatrix.zeros(2, 3) @ QMatrix.zeros(2, 3)
        with pytest.raises(ValueError):
            QMatrix.zeros(2, 3) + QMatrix.zeros(3, 2)
        with pytest.raises(ValueError):
            QMatrix.zeros(2, 3).trace()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_constructors(self, data):
        r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        e = data.draw(st.lists(mixed_entries, min_size=r * c, max_size=r * c))
        rows = [e[i * c:(i + 1) * c] for i in range(r)]
        cols = [e[j::c] for j in range(c)]
        assert_matches(QMatrix(r, c, e), DenseQMatrix(r, c, e))
        assert_matches(QMatrix.from_rows(rows, cols=c), DenseQMatrix.from_rows(rows, cols=c))
        assert_matches(QMatrix.from_columns(cols, rows=r), DenseQMatrix.from_columns(cols, rows=r))
        assert_matches(QMatrix.column(e), DenseQMatrix.column(e))
        assert_matches(QMatrix.identity(r), DenseQMatrix.identity(r))
        assert_matches(QMatrix.zeros(r, c), DenseQMatrix.zeros(r, c))
        assert all(type(v) is Fraction for v in stored_values(QMatrix(r, c, e)))

    @settings(max_examples=80, deadline=None)
    @given(mixed_storage(mixed_entries))
    def test_reads_transpose_trace_and_hash(self, pair):
        m, fractions = pair
        d = dense(m)
        assert_matches(m, d)
        assert_matches(m.transpose(), d.transpose())
        assert m == fractions and hash(m) == hash(fractions)
        if m.rows == m.cols:
            assert m.trace() == d.trace()
            assert type(m.trace()) is Fraction
        for j in range(m.cols):
            assert_matches(m.column_vector(j), DenseQMatrix.column(d.col(j)))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product_and_apply(self, data):
        a, _ = data.draw(mixed_storage(mixed_entries))
        b, _ = data.draw(mixed_storage(mixed_entries, rows=a.cols))
        assert_matches(a @ b, dense(a) @ dense(b))
        vec = data.draw(st.lists(mixed_entries, min_size=a.cols, max_size=a.cols).map(
            lambda v: [Fraction(x) for x in v]))
        assert a.apply(vec) == dense(a).apply(vec)
        assert a.apply(vec) == (a @ QMatrix.column(vec)).col(0)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sums_negation_and_scaling(self, data):
        a, _ = data.draw(mixed_storage(mixed_entries))
        b, _ = data.draw(mixed_storage(mixed_entries, rows=a.rows, cols=a.cols))
        da, db = dense(a), dense(b)
        assert_matches(a + b, da + db)
        assert_matches(a - b, da - db)
        assert_matches(-a, -da)
        c = data.draw(mixed_entries)
        assert_matches(a.scale(c), da.scale(c))
        # sums and scalings that cancel store nothing
        for zero in [a - a, a + (-a), a.scale(0), (a - b) + (b - a)]:
            assert_matches(zero, DenseQMatrix.zeros(a.rows, a.cols))
            assert zero.data == [{} for _ in range(a.rows)]

    def test_products_that_cancel_store_nothing(self):
        a = QMatrix.from_rows([[1, 1], [Fraction(1, 2), 2]])
        b = QMatrix.from_rows([[4, 1], [-4, -1]])
        expected = DenseQMatrix.from_rows([[0, 0], [-6, Fraction(-3, 2)]])
        assert_matches(a @ b, expected)
        assert (a @ b).data[0] == {}
        # negative control: the same product keeping its cancelled zeros
        # fails == against the reference, and the well-formedness check
        kept = matmul_keeping_zeros(a, b)
        assert kept.to_rows() == expected.to_rows()
        assert kept != as_qmatrix(expected)
        with pytest.raises(AssertionError):
            assert_well_formed(kept)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_writes_after_zeros(self, data):
        r, c = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        m, d = QMatrix.zeros(r, c), DenseQMatrix.zeros(r, c)
        writes = data.draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, c - 1),
                                              mixed_entries), max_size=12))
        for i, j, v in writes:
            m[i, j] = v
            d[i, j] = v
            m[i, j] += 1
            d[i, j] += 1
        # one write per row would show in every row if the rows shared a dict
        assert_matches(m, d)
        with pytest.raises(IndexError):
            m[r, 0] = 1
        with pytest.raises(IndexError):
            m[0, c] = 1

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(mixed_storage(), mixed_storage(huge_fractions)))
    def test_rank_and_kernel(self, pair):
        m, fractions = pair
        assert rank(m) == rank(fractions) == dense_rank(m)
        assert sparse_kernel_matrix(m) == kernel_basis(m) == dense_kernel_basis(m)[0]

    def test_hom_cochain_matrices(self):
        for k, (d, expected) in enumerate(hom_cochain_matrices()):
            assert_well_formed(d)
            assert rank(d) == expected
            if k < 2:
                assert sparse_kernel_matrix(d) == dense_kernel_of_hom_cochain_matrix(k)[0]


class TestSparseRankAgainstDenseOracle:
    def test_degenerate_shapes(self):
        for m in [QMatrix.zeros(0, 0), QMatrix.zeros(0, 4), QMatrix.zeros(3, 0),
                  QMatrix.zeros(3, 4)]:
            assert rank(m) == dense_rank(m) == 0
        row = [Fraction(1, 2), 0, Fraction(-3)]
        assert rank(QMatrix.from_rows([row, row, [2 * v for v in row]])) == 1

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(sparse_fractions))
    def test_small_rational_matrices(self, m):
        assert rank(m) == dense_rank(m)

    @settings(max_examples=100, deadline=None)
    @given(matrices_with_repeated_rows())
    def test_repeated_rows(self, m):
        assert rank(m) == dense_rank(m)

    @settings(max_examples=60, deadline=None)
    @given(rational_matrices(huge_fractions, max_rows=5, max_cols=5))
    def test_large_numerators_and_denominators(self, m):
        assert rank(m) == dense_rank(m)

    def test_hom_cochain_matrices(self):
        for d, expected in hom_cochain_matrices():
            assert rank(d) == expected
            assert rank(d.transpose()) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_permuted_hom_cochain_matrices(self, data):
        # permuting rows and columns moves every pivot tie-break
        mats = hom_cochain_matrices()
        d, expected = mats[data.draw(st.integers(0, len(mats) - 1))]
        rperm = data.draw(st.permutations(range(d.rows)))
        cperm = data.draw(st.permutations(range(d.cols)))
        shuffled = QMatrix.from_rows([[d[i, j] for j in cperm] for i in rperm], cols=d.cols)
        assert rank(shuffled) == expected


def sparse_rows(m: QMatrix) -> list[dict[int, Fraction]]:
    return [{j: v for j, v in enumerate(m.row(i)) if v} for i in range(m.rows)]


def assert_sparse_kernel_matches_dense(m: QMatrix, reference=None) -> None:
    """``reference``: the oracle's kernel basis and pivots of ``m`` or of a
    row permutation of it."""
    basis, free = sparse_kernel(sparse_rows(m), m.cols)
    dense, pivots = reference or dense_kernel_basis(m)
    assert len(basis) == dense.cols
    assert free == [j for j in range(m.cols) if j not in pivots]
    for k, vec in enumerate(basis):
        assert all(vec.values())
        assert_int_exactly_where_integral(vec.values())
        assert [vec.get(i, 0) for i in range(m.cols)] == dense.col(k)


def assert_int_exactly_where_integral(values) -> None:
    """Each value is an ``int`` when integral and a ``Fraction`` otherwise."""
    for v in values:
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v


class TestKernelEntryTypes:
    """The reduced kernel basis stores an entry as an ``int`` exactly when
    the pivot divides it."""

    def test_integral_and_fractional_entries(self):
        m = QMatrix.from_rows([[2, 4, 1, 0], [0, 0, 0, 3]])
        vecs, free = sparse_kernel(m.data, m.cols)
        assert free == [1, 2]
        assert vecs == [{1: 1, 0: -2}, {2: 1, 0: Fraction(-1, 2)}]
        assert [[type(v) for v in vec.values()] for vec in vecs] == [[int, int],
                                                                   [int, Fraction]]
        assert_int_exactly_where_integral(stored_values(kernel_basis(m)))
        assert kernel_basis(m) == dense_kernel_basis(m)[0]


class TestSparseKernelAgainstDenseKernel:
    """sparse_kernel picks the sparsest pivot row; the dense oracle the
    first one in scan order.  The reduced form is unique, so both must
    agree."""

    def test_degenerate_shapes(self):
        for m in [QMatrix.zeros(0, 0), QMatrix.zeros(0, 4), QMatrix.zeros(3, 0),
                  QMatrix.zeros(3, 4), QMatrix.identity(3)]:
            assert_sparse_kernel_matches_dense(m)

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(sparse_fractions))
    def test_small_rational_matrices(self, m):
        assert_sparse_kernel_matches_dense(m)

    @settings(max_examples=100, deadline=None)
    @given(matrices_with_repeated_rows())
    def test_repeated_rows(self, m):
        assert_sparse_kernel_matches_dense(m)

    @settings(max_examples=40, deadline=None)
    @given(rational_matrices(huge_fractions, max_rows=5, max_cols=5))
    def test_large_numerators_and_denominators(self, m):
        assert_sparse_kernel_matches_dense(m)

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_row_permuted_hom_cochain_matrices(self, data):
        # reordering the rows moves every pivot-row tie-break, and leaves
        # the reduced kernel basis as it is
        k = data.draw(st.integers(0, 1))
        d, _ = hom_cochain_matrices()[k]
        perm = data.draw(st.permutations(range(d.rows)))
        assert_sparse_kernel_matches_dense(
            QMatrix.from_rows([d.row(i) for i in perm], cols=d.cols),
            dense_kernel_of_hom_cochain_matrix(k))


nonzero_entries = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    st.integers(-3, 3).filter(bool).map(Fraction))


@st.composite
def presolve_systems(draw):
    """Sparse rows that exercise every step of the presolve, in a drawn
    order: two-term rows with non-unit factors, one-term rows, cycles of
    two-term rows closed consistently or not, long rows that substitution
    shrinks to two terms or one, long rows, duplicates (scaled or not),
    and empty and all-zero rows.  Entries are ints, Fractions and integral
    Fractions."""
    ncols = draw(st.integers(1, 10))
    col = st.integers(0, ncols - 1)
    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["pair", "one", "cycle", "cascade", "long", "copy",
                                     "empty"]))
        if kind == "pair" and ncols > 1:
            p, q = draw(st.lists(col, min_size=2, max_size=2, unique=True))
            rows.append({p: draw(nonzero_entries), q: draw(nonzero_entries)})
        elif kind == "one":
            rows.append({draw(col): draw(nonzero_entries)})
        elif kind == "cycle" and ncols > 2:
            # x = w solves every link; half the time the closing link is
            # scaled at one end by c != 1, which forces the cycle to zero
            cyc = draw(st.lists(col, min_size=3, max_size=min(ncols, 5), unique=True))
            w = {c: draw(nonzero_entries) for c in cyc}
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                s = draw(nonzero_entries)
                rows.append({a: s * w[b], b: -s * w[a]})
            if not draw(st.booleans()):
                a, b = cyc[-1], cyc[0]
                rows[-1] = {a: rows[-1][a], b: rows[-1][b] * draw(nonzero_entries.filter(
                    lambda c: c != 1))}
        elif kind == "cascade" and ncols > 3:
            # x_p = c x_q makes a x_p - a c x_q vanish: the long row shrinks
            # to its remaining one or two terms
            p, q, *rest = draw(st.lists(col, min_size=3, max_size=4, unique=True))
            c, a = draw(nonzero_entries), draw(nonzero_entries)
            rows.append({p: 1, q: -c})
            long = {p: a, q: -a * c}
            long.update({r: draw(nonzero_entries) for r in rest})
            rows.append(long)
        elif kind == "long":
            cols = draw(st.lists(col, min_size=1, max_size=5, unique=True))
            rows.append({j: draw(nonzero_entries) for j in cols})
        elif kind == "copy" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            c = draw(st.sampled_from([1, -1, 2, Fraction(3, 2)]))
            rows.append({j: c * v for j, v in row.items()})
        elif kind == "empty":
            rows.append(draw(st.sampled_from([{}, {0: 0}, {0: Fraction(0), ncols - 1: 0}])))
    return draw(st.permutations(rows)), ncols


def kernel_signature(result):
    """Vectors as their (key, type, value) items in key order, and the free
    columns."""
    vecs, free = result
    return [[(k, type(v), v) for k, v in vec.items()] for vec in vecs], free


class TestPresolveAgainstReduceOracle:
    """``sparse_kernel``'s union-find presolve against one ``_reduce`` of
    every row (``oracles.reduce_kernel``): the same vectors, key order,
    entry types and free columns."""

    @settings(max_examples=250, deadline=None)
    @given(presolve_systems())
    def test_presolve_systems(self, system):
        rows, ncols = system
        assert (kernel_signature(sparse_kernel(iter(rows), ncols))
                == kernel_signature(reduce_kernel(rows, ncols)))

    def test_pinned_systems(self):
        half = Fraction(1, 2)
        for rows, ncols in [
                ([{0: 2, 1: 3}, {1: 1, 2: -half}], 3),           # a chain of factors
                ([{0: 1, 1: -2}, {1: 1, 2: -3}, {0: 1, 2: -6}], 3),  # consistent cycle
                ([{0: 1, 1: -2}, {1: 1, 2: -3}, {0: 1, 2: -5}], 4),  # inconsistent cycle
                ([{1: 1, 2: 1}, {0: 1, 1: 1, 2: 1, 3: 1}, {0: 4}], 5),  # cascade to zero
                ([{0: 1, 3: 1}, {1: 1, 3: half}, {0: 1, 1: 1, 2: 1}], 4),
                ([{}, {0: 0}, {2: 3, 0: -3}, {2: -1, 0: 1}], 3)]:
            assert (kernel_signature(sparse_kernel(rows, ncols))
                    == kernel_signature(reduce_kernel(rows, ncols)))

    def test_hom_and_nerve_systems(self):
        # the systems of hom_direct and of the nerve differentials, where
        # two-term rows are the majority
        from cycrep.hom_ext import _hom_rows, _offsets, nerve_complex
        from cycrep.modules import dual_system, random_module
        from cycrep.rep_ring import tau_ru_module
        from oracles import scramble
        for support in [support_of_divisors(12), support_of_divisors(30)]:
            reg = regular_module(support)
            for x in [reg, tau_ru_module(support), scramble(random_module(support, 3), 4)]:
                offsets, total = _offsets(support, lambda n: x.dim(n) * reg.dim(n))
                rows = list(_hom_rows(x, reg, offsets))
                assert (kernel_signature(sparse_kernel(rows, total))
                        == kernel_signature(reduce_kernel(rows, total)))
                for d in nerve_complex(dual_system(x), 1)[0].diffs:
                    assert (kernel_signature(sparse_kernel(d.data, d.cols))
                            == kernel_signature(reduce_kernel(d.data, d.cols)))


@lru_cache(maxsize=None)
def dense_kernel_of_hom_cochain_matrix(k: int):
    d, _ = hom_cochain_matrices()[k]
    return dense_kernel_basis(d)


def assert_reduced_forms_match_oracle(m: QMatrix) -> None:
    """rref, kernel_basis, column_space_basis and cokernel of ``m`` against
    the dense scan-order Gauss-Jordan oracle."""
    rows, pivots = dense_rref_rows(m)
    r, piv = rref(m)
    assert piv == pivots
    assert r == QMatrix.from_rows(rows, cols=m.cols)
    assert kernel_basis(m) == dense_kernel_basis(m)[0]
    assert_int_exactly_where_integral(stored_values(kernel_basis(m)))
    basis, cols = column_space_basis(m)
    assert cols == pivots
    assert basis == QMatrix.from_columns([m.col(j) for j in pivots], rows=m.rows)
    p, d = cokernel(m)
    assert (p @ m).is_zero() and d == p.rows
    assert p == dense_kernel_basis(m.transpose())[0].transpose()


def assert_solve_matches_oracle(a: QMatrix, b: QMatrix) -> None:
    x = solve_matrix(a, b)
    assert x == dense_solve_matrix(a, b)
    if x is not None:
        assert a @ x == b


class TestReducedFormsAgainstDenseOracle:
    """Every public reduced-form routine runs the one sparse loop; each must
    return exactly what the dense Gauss-Jordan oracle gives."""

    def test_degenerate_shapes(self):
        for m in [QMatrix.zeros(0, 0), QMatrix.zeros(0, 4), QMatrix.zeros(3, 0),
                  QMatrix.zeros(3, 4), QMatrix.identity(3)]:
            assert_reduced_forms_match_oracle(m)
            for k in range(3):
                assert_solve_matches_oracle(m, QMatrix.zeros(m.rows, k))
            assert_solve_matches_oracle(m, QMatrix.identity(m.rows))

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices(sparse_fractions))
    def test_small_rational_matrices(self, m):
        assert_reduced_forms_match_oracle(m)

    @settings(max_examples=80, deadline=None)
    @given(matrices_with_repeated_rows())
    def test_repeated_rows(self, m):
        assert_reduced_forms_match_oracle(m)

    @settings(max_examples=40, deadline=None)
    @given(rational_matrices(huge_fractions, max_rows=5, max_cols=5))
    def test_large_numerators_and_denominators(self, m):
        assert_reduced_forms_match_oracle(m)

    def test_hom_cochain_matrices(self):
        for k in range(2):
            d, _ = hom_cochain_matrices()[k]
            basis, pivots = dense_kernel_of_hom_cochain_matrix(k)
            assert kernel_basis(d) == basis
            assert rref(d)[1] == column_space_basis(d)[1] == pivots

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_consistent_with_several_columns(self, data):
        a = data.draw(st.one_of(rational_matrices(sparse_fractions),
                                matrices_with_repeated_rows(),
                                rational_matrices(huge_fractions, max_rows=5, max_cols=5)))
        k = data.draw(st.integers(0, 3))
        x = data.draw(st.lists(sparse_fractions, min_size=a.cols * k,
                               max_size=a.cols * k).map(lambda e: QMatrix(a.cols, k, e)))
        b = a @ x
        assert solve_matrix(a, b) is not None
        assert_solve_matches_oracle(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solve_arbitrary_right_hand_sides(self, data):
        # mostly inconsistent when a has dependent rows
        a = data.draw(st.one_of(matrices_with_repeated_rows(),
                                rational_matrices(sparse_fractions)))
        k = data.draw(st.integers(1, 3))
        b = data.draw(st.lists(sparse_fractions, min_size=a.rows * k,
                               max_size=a.rows * k).map(lambda e: QMatrix(a.rows, k, e)))
        assert_solve_matches_oracle(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(rational_matrices(sparse_fractions), matrices_with_repeated_rows()))
    def test_solve_against_identity(self, a):
        # a right inverse exactly when a is surjective
        s = solve_matrix(a, QMatrix.identity(a.rows))
        assert (s is not None) == (rank(a) == a.rows)
        assert_solve_matches_oracle(a, QMatrix.identity(a.rows))

    def test_inconsistent_systems(self):
        a = QMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
        assert solve_matrix(a, QMatrix.from_rows([[1, 0], [2, 0], [0, 0]])) is not None
        for b in [QMatrix.column([1, 1, 0]), QMatrix.from_rows([[1, 0], [2, 1], [0, 0]]),
                  QMatrix.identity(3)]:
            assert solve_matrix(a, b) is None
            assert_solve_matches_oracle(a, b)
        p = QMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        assert p @ solve_matrix(p, QMatrix.identity(2)) == QMatrix.identity(2)
