import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cycrep.cyclic_site import (SupportSet, character_blocks, divisor_closure, divisors,
                               support_of_divisors, units)
from cycrep.linalg import QMatrix, hstack, rank, solve
from cycrep.modules import (
    ModuleMorphism,
    atomic_module,
    direct_sum,
    dual_system,
    free_module,
    random_module,
    regular_module,
    semifree_module,
    zero_module,
)
from cycrep.hom_ext import (
    CochainComplex,
    _ModuleStage,
    _SpanTracker,
    _estimate_nerve_entries,
    _hom_cochain,
    _hom_rows,
    _offsets,
    ext_via_resolution,
    hom_direct,
    hom_via_limit,
    lim_derived,
    limit_basis,
    nerve_complex,
    resolve_by_representables,
    sequential_lim1,
    tower_along_chain,
)
from cycrep.rep_ring import tau_ru_module
from cycrep.resolution import build_complex
from oracles import (DenseSpanTracker, all_units_candidates, averaged_equivariant_basis,
                     dense_hom_cochain, dense_limit_basis, dense_nerve_complex, dense_resolve_by_representables,
                     eliminating_sequential_lim1,
                     equivariant_basis, flat_entries, fraction_hom_rows,
                     fraction_morphism_violations,
                     greedy_resolve, limit_family_compatible, reference_hom_via_limit_mats,
                     reference_nerve_entries,
                     scaled_sum_hom_direct, scramble, simple_module, stacked_matrix,
                     tracker_witnesses, witnesses_by_solve)

S123 = SupportSet([1, 2, 3])
S12 = support_of_divisors(12)
# divisor closures of up to three numbers in 1..30
small_supports = st.lists(st.integers(1, 30), min_size=1, max_size=3).map(divisor_closure)


def spans_equal(h1, h2):
    """Mutual membership of the stacked basis vectors."""
    if h1.dimension != h2.dimension:
        return False
    if h1.dimension == 0:
        return True
    m1, m2 = stacked_matrix(h1), stacked_matrix(h2)
    for j in range(m2.cols):
        if solve(m1, m2.column_vector(j)) is None:
            return False
    for j in range(m1.cols):
        if solve(m2, m1.column_vector(j)) is None:
            return False
    return True


class TestHomDirect:
    def test_atom_to_regular_is_zero(self):
        # the level-1 value must map to zero because the injective
        # restriction out of level 1 forces it
        assert hom_direct(atomic_module(1, 1, S123), regular_module(S123)).dimension == 0

    def test_endomorphisms_contain_identity(self):
        for x in [regular_module(S12), semifree_module(2, S12), random_module(S12, 9)]:
            h = hom_direct(x, x)
            assert h.dimension >= 1
            stacked = stacked_matrix(h)
            ident = []
            for n in S12:
                ident.extend(flat_entries(QMatrix.identity(x.dim(n))))
            assert solve(stacked, QMatrix.column(ident)) is not None

    def test_semifree_to_regular_is_one_dimensional(self):
        reg = regular_module(S12)
        for n in S12:
            assert hom_direct(semifree_module(n, S12), reg).dimension == 1

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            hom_direct(regular_module(S12), regular_module(S123))

    def test_all_witnesses_validate(self):
        reg = regular_module(S12)
        for x in [regular_module(S12), tau_ru_module(S12), random_module(S12, 4)]:
            for f in hom_direct(x, reg).basis:
                assert f.validate() == []

    def test_basis_linearly_independent(self):
        h = hom_direct(regular_module(S12), regular_module(S12))
        stacked = stacked_matrix(h)
        assert rank(stacked) == h.dimension


class TestIntegerHomRows:
    """hom_direct's integer rows against the same equations read from the
    stored matrices in Fraction arithmetic: row for row, the same nonzeros,
    each row scaled by one positive integer.  The scrambled modules have
    actions and restrictions with denominators."""

    @pytest.mark.parametrize("support", [S12, support_of_divisors(30), divisor_closure([8, 9])])
    def test_rows_match_fraction_rows(self, support):
        pairs = [(regular_module(support), regular_module(support)),
                 (tau_ru_module(support), regular_module(support)),
                 (random_module(support, 4), regular_module(support)),
                 (scramble(random_module(support, 5), 6), regular_module(support)),
                 (regular_module(support), scramble(random_module(support, 7), 8)),
                 (scramble(regular_module(support), 9), scramble(random_module(support, 2), 3))]
        denominators = set()
        for x, y in pairs:
            offsets, _ = _offsets(support, lambda n: x.dim(n) * y.dim(n))
            rows = list(_hom_rows(x, y, offsets))
            ref = fraction_hom_rows(x, y)
            assert len(rows) == len(ref)
            for row, want in zip(rows, ref):
                row = {k: v for k, v in row.items() if v}
                assert all(type(v) is int for v in row.values())
                want = {k: v for k, v in want.items() if v}
                denominators.update(v.denominator for v in want.values())
                assert row.keys() == want.keys()
                scales = {Fraction(v) / want[k] for k, v in row.items()}
                assert len(scales) <= 1
                assert all(c > 0 and c.denominator == 1 for c in scales)
        assert max(denominators) > 1


class TestMonolithicSystemAgreement:
    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6), st.booleans())
    def test_basis_matches_every_unit_system(self, support, seed, to_regular):
        # assemble the full equivariance + naturality system as one dense
        # matrix that quantifies every unit, so it does not share the
        # solver's generating sets; the reduced kernel basis of a subspace in
        # fixed coordinates is unique, so the bases agree vector for vector
        from cycrep.linalg import QMatrix as QM, kernel_basis as kb

        def every_unit_basis(x, y):
            support = x.support
            offsets, total = {}, 0
            for n in support:
                offsets[n] = total
                total += x.dim(n) * y.dim(n)
            rows = []
            for n in support:
                dx, dy = x.dim(n), y.dim(n)
                for l in units(n):
                    ax, ay = x.action(n, l), y.action(n, l)
                    for i in range(dy):
                        for j in range(dx):
                            row = [Fraction(0)] * total
                            for t in range(dx):
                                row[offsets[n] + i * dx + t] += ax[t, j]
                            for s in range(dy):
                                row[offsets[n] + s * dx + j] -= ay[i, s]
                            rows.append(row)
            for n, m in support.covering_pairs():
                rx, ry = x.restriction_step(n, m), y.restriction_step(n, m)
                dxn, dyn, dxm, dym = x.dim(n), y.dim(n), x.dim(m), y.dim(m)
                for i in range(dym):
                    for j in range(dxn):
                        row = [Fraction(0)] * total
                        for s in range(dyn):
                            row[offsets[n] + s * dxn + j] += ry[i, s]
                        for t in range(dxm):
                            row[offsets[m] + i * dxm + t] -= rx[t, j]
                        rows.append(row)
            basis = kb(QM.from_rows(rows, cols=total))
            return [basis.col(k) for k in range(basis.cols)]

        x = random_module(support, seed)
        y = regular_module(support) if to_regular else random_module(support, seed + 1)
        assert [f.stacked_vector() for f in hom_direct(x, y).basis] == every_unit_basis(x, y)


class TestHomViaLimit:
    def test_regular_gives_top_totient(self):
        assert hom_via_limit(regular_module(S12)).dimension == 4

    def test_atom_gives_zero(self):
        assert hom_via_limit(atomic_module(1, 1, S123)).dimension == 0

    def test_reconstruction_projects_back_to_forms(self):
        x = regular_module(S12)
        forms = limit_basis(dual_system(x))
        homs = hom_via_limit(x)
        assert len(forms) == homs.dimension
        for lam, f in zip(forms, homs.basis):
            assert limit_family_compatible(x, lam)
            for n in S12:
                un = units(n)
                row = f.mats[n].row(un.index(1))
                assert row == lam[n]

    def test_outputs_are_valid_morphisms(self):
        for x in [regular_module(S12), tau_ru_module(S12), random_module(S12, 21),
                  semifree_module(6, S12)]:
            for f in hom_via_limit(x).basis:
                assert f.validate() == [], x.name


class TestCrossOracle:
    def test_agreement_and_equal_spans(self):
        reg12 = regular_module(S12)
        battery = [regular_module(S12), tau_ru_module(S12),
                   atomic_module(1, 1, S12), semifree_module(4, S12),
                   free_module(6, S12), random_module(S12, 1), random_module(S12, 2)]
        for x in battery:
            direct = hom_direct(x, reg12)
            limit = hom_via_limit(x)
            assert direct.dimension == limit.dimension, x.name
            assert spans_equal(direct, limit), x.name


def same_column_space(a, b):
    return a.cols == b.cols == rank(a) == rank(b) == rank(hstack(a, b))


def hom_battery(support):
    """Valid modules of every kind the Hom solvers meet: regular, tauRU,
    random, conjugated with fractional base changes, direct sums."""
    return [regular_module(support), tau_ru_module(support),
            random_module(support, 3), scramble(regular_module(support), 5),
            scramble(random_module(support, 8), 6),
            direct_sum([tau_ru_module(support), random_module(support, 9)])]


class TestEquivariantBasisAgainstAveraging:
    """The generator kernel of the two-stage reference
    (oracles.equivariant_basis) against the Kronecker-averaged projector
    over every unit (oracles.averaged_equivariant_basis)."""

    @pytest.mark.parametrize("support", [S12, support_of_divisors(30)])
    def test_battery(self, support):
        mods = hom_battery(support)
        for x in mods:
            for y in mods:
                for n in support:
                    assert same_column_space(equivariant_basis(x, y, n),
                                             averaged_equivariant_basis(x, y, n)), (x.name, y.name, n)

    @settings(max_examples=30, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6))
    def test_random_modules(self, support, seed):
        x, y = random_module(support, seed), scramble(random_module(support, seed + 1), seed)
        for n in support:
            assert same_column_space(equivariant_basis(x, y, n),
                                     averaged_equivariant_basis(x, y, n))


class TestHomDirectAgainstTwoStageSolve:
    """The one sparse system against the two-stage solve: an equivariant
    basis per level, then the dense naturality system in its coordinates
    (oracles.scaled_sum_hom_direct).  Both give the reduced kernel basis
    in the stacked coordinates, so the basis morphisms are equal."""

    @pytest.mark.parametrize("support", [S12, support_of_divisors(30)])
    def test_battery(self, support):
        mods = hom_battery(support)
        # into an atom at 2, the naturality rows of (1, 2) are not implied
        # by the other squares, as they are into modules whose restrictions
        # are injective
        for x in mods:
            for y in mods[:3] + [atomic_module(2, 1, support)]:
                got = hom_direct(x, y)
                want = scaled_sum_hom_direct(x, y)
                assert [f.mats for f in got.basis] == [f.mats for f in want.basis], \
                    (x.name, y.name)


class TestLimitBasisAgainstDenseSystem:
    """The sparse compatibility system against its dense kernel
    (oracles.dense_limit_basis): the same reduced basis, family for family."""

    def test_battery(self):
        for support in [S12, support_of_divisors(30), divisor_closure([8, 9]), S123,
                        SupportSet([1, 2, 3, 5, 6, 10, 15])]:
            for x in hom_battery(support) + [atomic_module(1, 1, support)]:
                d = dual_system(x)
                assert limit_basis(d) == dense_limit_basis(d), x.name

    @settings(max_examples=30, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6))
    def test_random_modules(self, support, seed):
        d = dual_system(scramble(random_module(support, seed), seed + 1))
        assert limit_basis(d) == dense_limit_basis(d)


class TestHomViaLimitAgainstReference:
    """The sparse integer reconstruction against the entry-by-entry
    Fraction one; the battery's scrambled modules give the families and
    the actions denominators."""

    def test_battery(self):
        for support in [S12, support_of_divisors(30), divisor_closure([8, 9]),
                        support_of_divisors(60), divisor_closure([10, 14, 15, 21])]:
            for x in hom_battery(support):
                h = hom_via_limit(x)
                ref = reference_hom_via_limit_mats(x, limit_basis(dual_system(x)))
                assert [f.mats for f in h.basis] == ref, x.name


def inversion_morphism(support) -> ModuleMorphism:
    """g -> g^-1 on the basis units(n) of the regular module at every level:
    natural, since inversion commutes with reduction, and equivariant only
    at levels whose units all have order at most 2."""
    reg = regular_module(support)
    mats = {}
    for n in support:
        un = units(n)
        mat = QMatrix.zeros(len(un), len(un))
        for g in un:
            mat[un.index(un.inv(g)), un.index(g)] = 1
        mats[n] = mat
    return ModuleMorphism(reg, reg, mats)


def perturbed(f: ModuleMorphism, k: int) -> ModuleMorphism:
    """f with 1/2 added to one entry at one level, chosen by k."""
    levels = [n for n in f.source.support if f.mats[n].rows * f.mats[n].cols]
    n = levels[k % len(levels)]
    mat = f.mats[n]
    i, j = k % mat.rows, k % mat.cols
    bumped = QMatrix.from_row_dicts([dict(r) for r in mat.data], mat.cols)
    bumped[i, j] = mat[i, j] + Fraction(1, 2)
    return ModuleMorphism(f.source, f.target, {**f.mats, n: bumped})


class TestMorphismValidateAgainstFractions:
    """ModuleMorphism.validate on integer views against the Fraction
    products it replaced (oracles.fraction_morphism_violations): the same
    violations, in the same order."""

    # the scrambled modules give the maps and the bases denominators: as
    # sources everywhere, and as targets (the fourth module of the battery
    # on) where hom_direct into them is cheap
    @pytest.mark.parametrize("support, targets", [
        (S12, 6), (support_of_divisors(60), 3), (divisor_closure([10, 14, 15, 21]), 6)])
    def test_hom_battery_bases(self, support, targets):
        mods = hom_battery(support)
        flagged = 0
        for x in mods:
            bases = [hom_via_limit(x).basis] + [hom_direct(x, y).basis for y in mods[:targets]]
            for basis in bases:
                for k, f in enumerate(basis):
                    assert f.validate() == fraction_morphism_violations(f) == [], x.name
                    if k < 2:
                        # a perturbation is itself a morphism where the
                        # matrix unit it adds is one
                        bad = perturbed(f, k)
                        violations = bad.validate()
                        assert violations == fraction_morphism_violations(bad), x.name
                        flagged += bool(violations)
        assert flagged

    def test_natural_but_not_equivariant(self):
        f = inversion_morphism(support_of_divisors(60))
        violations = f.validate()
        assert violations == fraction_morphism_violations(f)
        assert not any(v.startswith("naturality") for v in violations)
        # units of order 4 live at the levels divisible by 5
        assert {int(v.split()[4].rstrip(",")) for v in violations} == {5, 10, 15, 20, 30, 60}

    def test_shape_mismatch(self):
        f = inversion_morphism(S12)
        bad = ModuleMorphism(f.source, f.target, {**f.mats, 4: QMatrix.zeros(1, 2)})
        assert bad.validate() == fraction_morphism_violations(bad) == [
            "level 4 matrix has shape (1, 2), expected (2, 2)"]


class TestHomMetamorphic:
    """Identities Hom must satisfy, over small random supports."""

    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6))
    def test_additive_over_direct_sums(self, support, seed):
        x1, x2, y1, y2 = (random_module(support, seed + i) for i in range(4))
        def dim(x, y):
            return hom_direct(x, y).dimension
        assert dim(direct_sum([x1, x2]), y1) == dim(x1, y1) + dim(x2, y1)
        assert dim(x1, direct_sum([y1, y2])) == dim(x1, y1) + dim(x1, y2)
        assert hom_via_limit(direct_sum([x1, x2])).dimension == (
            hom_via_limit(x1).dimension + hom_via_limit(x2).dimension)

    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6))
    def test_invariant_under_conjugation(self, support, seed):
        x, y = random_module(support, seed), random_module(support, seed + 1)
        d = hom_direct(x, y).dimension
        assert hom_direct(scramble(x, seed), y).dimension == d
        assert hom_direct(x, scramble(y, seed)).dimension == d
        assert hom_via_limit(scramble(x, seed)).dimension == hom_via_limit(x).dimension

    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6), st.data())
    def test_representables_evaluate(self, support, seed, data):
        n = data.draw(st.sampled_from(list(support)))
        y = random_module(support, seed)
        free = free_module(n, support)
        assert hom_direct(free, y).dimension == y.dim(n)
        assert hom_via_limit(free).dimension == len(units(n))


class TestDerivedLimits:
    def test_constant_system_on_directed_support(self):
        dl = lim_derived(dual_system(semifree_module(1, S12)), 3)
        assert dl.dims == [1, 0, 0, 0]

    def test_atom_over_three_point_support(self):
        dl = lim_derived(dual_system(atomic_module(1, 1, S123)), 2)
        assert dl.dims == [0, 1, 0]

    def test_directed_support_concentrates_at_top(self):
        # with a maximum element the limit is the value there and nothing
        # survives in higher degrees
        for x in [regular_module(S12), tau_ru_module(S12), random_module(S12, 8)]:
            dl = lim_derived(dual_system(x), 3)
            assert dl.dims[0] == len(limit_basis(dual_system(x))) == x.dim(12)
            assert dl.dims[1:] == [0, 0, 0]
        assert lim_derived(dual_system(regular_module(S12)), 0).dims == [4]

    def test_negative_top_degree_is_refused(self):
        reg = regular_module(S12)
        with pytest.raises(ValueError):
            lim_derived(dual_system(reg), -1)
        with pytest.raises(ValueError):
            ext_via_resolution(reg, reg, -1)

    def test_d_squared_zero_and_h0_equals_equalizer(self):
        for x in [regular_module(S12), atomic_module(1, 1, S123),
                  random_module(S12, 14), random_module(S123, 15)]:
            d = dual_system(x)
            dl = lim_derived(d, 3)
            assert dl.complex.check_d_squared()
            assert dl.dims[0] == len(limit_basis(d))

    def test_witnesses_are_cocycles(self):
        d = dual_system(atomic_module(1, 1, S123))
        dl = lim_derived(d, 2)
        assert len(dl.witnesses[1]) == 1
        w = QMatrix.column(dl.witnesses[1][0])
        assert (dl.complex.diffs[1] @ w).is_zero()

    def test_nerve_chain_enumeration(self):
        _, chains = nerve_complex(dual_system(regular_module(S123)), 1)
        assert chains[0] == [(1,), (2,), (3,)]
        assert chains[1] == [(1, 2), (1, 3)]


NON_DIRECTED = [SupportSet([1, 2, 3]), SupportSet([1, 2, 3, 5]),
                SupportSet([1, 2, 3, 4, 6]), SupportSet([1, 2, 3, 5, 6, 10, 15])]


class TestWitnessesAgainstSolveOracle:
    """lim_derived reads its witnesses off the reduced coboundaries on the
    free columns; one oracle tracks the growing span incrementally, the
    other re-solves against it."""

    def assert_same_witnesses(self, x, max_k=2):
        out = lim_derived(dual_system(x), max_k)
        # lim_derived ranks d_0 by rank-nullity off its reduced kernel; every
        # differential ranked by elimination gives the same dimensions
        assert out.dims == out.complex.cohomology_dims(max_k)
        assert out.witnesses == tracker_witnesses(out.complex, out.dims)
        assert out.witnesses == witnesses_by_solve(out.complex.diffs, out.dims)
        assert [len(w) for w in out.witnesses] == out.dims
        return out

    def test_atom_over_three_point_support(self):
        out = self.assert_same_witnesses(atomic_module(1, 1, S123))
        assert out.dims == [0, 1, 0]

    @pytest.mark.parametrize("support,seed,dims", [
        (SupportSet([1, 2, 3, 5, 6, 10, 15]), 2, [0, 0, 2]),
        (SupportSet([1, 2, 3, 5, 6, 10, 15]), 6, [4, 2, 1]),
        (SupportSet([1, 2, 3, 4, 6]), 25, [1, 2, 0]),
    ])
    def test_nonzero_higher_limits_with_coboundaries(self, support, seed, dims):
        out = self.assert_same_witnesses(random_module(support, seed))
        assert out.dims == dims
        # a higher degree with witnesses and a nonzero coboundary space, so
        # the coboundaries decide which cocycles are kept
        assert any(out.dims[k] and rank(out.complex.diffs[k - 1])
                   for k in range(1, len(out.dims)))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(NON_DIRECTED), st.integers(0, 10 ** 6))
    def test_random_modules_over_non_directed_supports(self, support, seed):
        self.assert_same_witnesses(random_module(support, seed))

    @pytest.mark.parametrize("support", NON_DIRECTED)
    def test_regular_and_conjugated_modules(self, support):
        reg = regular_module(support)
        self.assert_same_witnesses(reg)
        self.assert_same_witnesses(scramble(reg, 3))

    @pytest.mark.parametrize("support", NON_DIRECTED)
    def test_atom(self, support):
        self.assert_same_witnesses(atomic_module(1, 1, support), max_k=3)


class TestSparseNerveAgainstDenseOracle:
    """nerve_complex emits sparse rows from composites cached per (divisor,
    multiple) pair; the oracle fills dense matrices and recomposes the
    structure map for every chain."""

    def assert_same_nerve(self, x, max_k=3):
        d = dual_system(x)
        cx, chains = nerve_complex(d, max_k)
        ref, ref_chains = dense_nerve_complex(d, max_k)
        assert chains == ref_chains
        assert cx.diffs == ref.diffs
        assert cx.check_d_squared()

    @pytest.mark.parametrize("support", NON_DIRECTED + [S12, support_of_divisors(36),
                                                        support_of_divisors(60)])
    def test_regular_random_atomic_and_conjugated(self, support):
        reg = regular_module(support)
        for x in [reg, scramble(reg, 5), random_module(support, 3),
                  atomic_module(1, 1, support)]:
            self.assert_same_nerve(x)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(NON_DIRECTED + [S12, support_of_divisors(18)]),
           st.integers(0, 10 ** 6))
    def test_random_sources(self, support, seed):
        self.assert_same_nerve(random_module(support, seed))


class TestNerveEstimateAgainstChainCounting:
    """``_estimate_nerve_entries`` sums over the chains ``nerve_complex``
    enumerates; the reference counts them with a recursion of its own."""

    @pytest.mark.parametrize("support", [S12, support_of_divisors(30),
                                         support_of_divisors(360), support_of_divisors(2520),
                                         SupportSet([1, 2, 3, 5, 6, 10, 15])])
    def test_regular_random_and_atomic(self, support):
        for x in [regular_module(support), random_module(support, 7),
                  atomic_module(1, 1, support), atomic_module(max(support), 2, support)]:
            for k in range(4):
                assert _estimate_nerve_entries(x, k) == reference_nerve_entries(x, k), (x, k)


def qmatrix_sizes(monkeypatch) -> list[int]:
    """rows x cols of every QMatrix created from here on from an entry
    list or by ``zeros``; ``from_row_dicts``, which takes only the stored
    entries, is not counted."""
    sizes = []
    zeros, init = QMatrix.zeros.__func__, QMatrix.__init__

    def counted_zeros(cls, rows, cols):
        sizes.append(rows * cols)
        return zeros(cls, rows, cols)

    def counted_init(self, rows, cols, entries):
        sizes.append(rows * cols)
        init(self, rows, cols, entries)

    monkeypatch.setattr(QMatrix, "zeros", classmethod(counted_zeros))
    monkeypatch.setattr(QMatrix, "__init__", counted_init)
    return sizes


def largest_structure_map(x) -> int:
    return max(x.dim(n) * x.dim(m) for n in x.support for m in x.support.multiples_of(n))


def test_no_dense_differential_on_either_route(monkeypatch):
    """Every QMatrix the two Ext routes create from an entry list or by
    ``zeros`` is at most the size of one structure map between two levels;
    the differentials over divisors(60), hundreds of rows by hundreds of
    columns, are assembled from their sparse rows.  The regular module
    resolves in degree 0, so the atom, whose resolution has differentials,
    runs the resolution route's cochain assembly too."""
    support = support_of_divisors(60)
    reg = regular_module(support)
    largest_map = largest_structure_map(reg)
    sizes = qmatrix_sizes(monkeypatch)
    assert ext_via_resolution(reg, reg, 2) == [16, 0, 0]
    assert ext_via_resolution(atomic_module(1, 1, support), reg, 2) == [0, 0, 0]
    dl = lim_derived(dual_system(reg), 2)
    assert dl.dims == [16, 0, 0]
    assert max(d.rows * d.cols for d in dl.complex.diffs) > 10 * largest_map
    assert sizes and max(sizes) <= largest_map


def test_no_dense_system_on_either_hom_route(monkeypatch):
    """Every QMatrix the two Hom routes create from an entry list or by
    ``zeros`` is at most the size of one structure map between two levels;
    each route solves one sparse system,
    where a dense naturality system over divisors(60) has tens of
    thousands of entries."""
    support = support_of_divisors(60)
    reg, tau = regular_module(support), tau_ru_module(support)
    largest_map = largest_structure_map(reg)
    sizes = qmatrix_sizes(monkeypatch)
    assert hom_direct(tau, reg).dimension == 16
    assert hom_via_limit(tau).dimension == 16
    assert sizes and max(sizes) <= largest_map


def is_cocycle(d: QMatrix, w: list[Fraction]) -> bool:
    return (d @ QMatrix.column(w)).is_zero()


HIGHER_EXT_CASES = [
    ([10, 14, 15, 21], [0, 0, 1, 0]),
    ([p * q * r for p in (2, 3) for q in (5, 7) for r in (11, 13)], [0, 0, 0, 1]),
]


class TestNonzeroHigherExtOnBothRoutes:
    """Ext(atom, regular) over products of three-point supports: the Ext^1
    over {1, 2, 3} convolves to a single Ext^2 over {1,2,3} x {1,5,7} and a
    single Ext^3 over {1,2,3} x {1,5,7} x {1,11,13}."""

    @pytest.mark.parametrize("seeds,dims", HIGHER_EXT_CASES)
    def test_resolution_and_derived_limits(self, seeds, dims):
        support = divisor_closure(seeds)
        x, y = atomic_module(1, 1, support), regular_module(support)
        # the complexes of the greedy and of the minimal resolution
        for steps in [greedy_resolve(x, 4), resolve_by_representables(x, 4)]:
            hom_cx = _hom_cochain(steps, y)
            assert hom_cx.check_d_squared()
            assert hom_cx.cohomology_dims(3) == dims
        dl = lim_derived(dual_system(x), 3)
        assert dl.dims == dims
        assert dl.complex.check_d_squared()
        assert [len(ws) for ws in dl.witnesses] == dims
        for k, ws in enumerate(dl.witnesses):
            assert all(is_cocycle(dl.complex.diffs[k], w) for w in ws)

    @pytest.mark.parametrize("seeds", [seeds for seeds, _ in HIGHER_EXT_CASES])
    def test_generator_counts_match_greedy_ext_into_simples(self, seeds):
        # these resolutions reach degree 2 or 3 only through kernels that
        # are eliminated; a level whose kernel were taken as zero without
        # elimination would lose generators.  The count of type (n, psi) in
        # degree k is Ext^k(x, S_{n,psi}) / phi(d), here read off the greedy
        # resolution, which has no blocks and no rank-nullity skip.  The
        # atom and its syzygies lie in the trivial block, so the types
        # (n, trivial) account for every generator.
        support = divisor_closure(seeds)
        x = atomic_module(1, 1, support)
        steps = resolve_by_representables(x, 4)
        greedy = greedy_resolve(x, 4)
        totals = [0] * 4
        for n in support:
            trivial = character_blocks(n)[0]
            counts = [generator_types(step).count((n, trivial.key)) for step in steps[:4]]
            ext = _hom_cochain(greedy, simple_module(n, trivial, support)).cohomology_dims(3)
            assert ext == counts, n
            totals = [a + b for a, b in zip(totals, counts)]
        assert totals == [len(step.gens) for step in steps[:4]]

    def test_a_cover_short_of_a_generator_raises(self, monkeypatch):
        # resolve_by_representables takes a level's kernel as zero when its
        # covering map has as many columns as rows, which holds only for a
        # map that is onto: a cover that cannot finish must raise instead
        all_candidates = _ModuleStage.candidates

        def first_only(self, n, blk):
            yield next(all_candidates(self, n, blk))

        monkeypatch.setattr(_ModuleStage, "candidates", first_only)
        reg = regular_module(S123)
        with pytest.raises(RuntimeError, match="covering failed"):
            resolve_by_representables(direct_sum([reg, reg]), 2)


sparse_entries = st.sampled_from([Fraction(0), Fraction(0), Fraction(0), Fraction(1),
                                  Fraction(-1), Fraction(2), Fraction(1, 2)])


class TestSpanTrackerAgainstDenseTracker:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda d: st.lists(
        st.lists(sparse_entries, min_size=d, max_size=d), max_size=10)))
    def test_growth_and_unit_membership(self, vectors):
        dim = len(vectors[0]) if vectors else 1
        sparse, dense = _SpanTracker(), DenseSpanTracker(dim)
        for v in vectors:
            assert sparse.add({j: x for j, x in enumerate(v) if x}) == dense.add(v)
            assert sparse.rank == dense.rank
            for t in range(dim):
                assert sparse.contains({t: Fraction(1)}) == dense.contains_unit(t)


class TestSparseResolutionAgainstDenseOracle:
    """The greedy resolution and its Hom cochains run on sparse vectors
    with integer accumulation; the oracle is the dense Fraction path."""

    def assert_same_resolution(self, x, y, depth=3):
        steps = greedy_resolve(x, depth)
        ref = dense_resolve_by_representables(x, depth)
        assert [s.gens for s in steps] == [gens for gens, _ in ref]
        for step, (_, cols) in zip(steps, ref):
            assert step.classifier_cols == [{i: v for i, v in enumerate(c) if v}
                                            for c in cols]
        assert _hom_cochain(steps, y).diffs == dense_hom_cochain(ref, y, x.support)
        return steps

    @pytest.mark.parametrize("top", [12, 36, 60])
    def test_regular_module(self, top):
        reg = regular_module(support_of_divisors(top))
        steps = self.assert_same_resolution(reg, reg)
        assert all(step.gens for step in steps)

    def test_atomic_and_quotient_modules(self):
        reg = regular_module(S123)
        self.assert_same_resolution(atomic_module(1, 1, S123), reg)
        self.assert_same_resolution(atomic_module(4, 2, S12), regular_module(S12))
        self.assert_same_resolution(tau_ru_module(S12), regular_module(S12))

    def test_conjugated_modules(self):
        # denominators in the source reach the tracker and the kernels;
        # denominators in the target reach the integer cochain assembly
        reg = regular_module(S12)
        conj = scramble(reg, 1)
        for x, y in [(conj, reg), (reg, conj), (conj, scramble(reg, 2))]:
            self.assert_same_resolution(x, y)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([S12, support_of_divisors(18)] + NON_DIRECTED),
           st.integers(0, 10 ** 6))
    def test_random_modules(self, support, seed):
        x = random_module(support, seed)
        self.assert_same_resolution(x, random_module(support, seed + 1))
        self.assert_same_resolution(regular_module(support), x)


FOUR_CYCLE = divisor_closure([10, 14, 15, 21])  # P_1 above 1 is a 4-cycle
CLOSURE_27 = divisor_closure([p * q * r for p in (2, 3) for q in (5, 7) for r in (11, 13)])


def generator_types(step):
    return sorted((n, blk.key) for n, blk in zip(step.gens, step.blocks))


def battery_12():
    support = S12
    mods = [regular_module(support), tau_ru_module(support), atomic_module(1, 1, support),
            atomic_module(4, 2, support)]
    mods += [semifree_module(n, support) for n in divisors(12)]
    return mods + [random_module(support, seed) for seed in range(20)]


class TestMinimalResolution:
    """resolve_by_representables covers each stage minimally by the block
    projectives e P_n, so its generator counts are invariants of the
    module: the regular module is the projective sum of the e_psi P_f,
    and the resolution of a simple is a Koszul complex."""

    @pytest.mark.parametrize("support", [S12, support_of_divisors(36), support_of_divisors(60),
                                         support_of_divisors(360)] + NON_DIRECTED)
    def test_regular_and_tau_ru_resolve_in_degree_zero(self, support):
        # one generator e_psi P_f per block psi of conductor f in the support
        expected = sorted((f, blk.key) for f in support for blk in character_blocks(f)
                          if blk.conductor == f)
        for x in [regular_module(support), tau_ru_module(support)]:
            steps = resolve_by_representables(x, 2)
            assert generator_types(steps[0]) == expected
            assert steps[1].gens == steps[2].gens == []

    @pytest.mark.parametrize("support,sources", [
        (S12, battery_12),
        (FOUR_CYCLE, lambda: [atomic_module(1, 1, FOUR_CYCLE), regular_module(FOUR_CYCLE),
                              tau_ru_module(FOUR_CYCLE)]
         + [random_module(FOUR_CYCLE, seed) for seed in range(4)]
         + [simple_module(n, blk, FOUR_CYCLE) for n in (1, 3, 5, 7)
            for blk in character_blocks(n)]),
    ])
    def test_generators_count_ext_into_simples(self, support, sources):
        # Hom(e P_m, S_{n,psi}) is Q(psi) when (m, e) = (n, psi) and 0
        # otherwise, so for a minimal resolution every differential of
        # Hom(-, S) vanishes and Ext^k(x, S) is phi(d) times the number of
        # degree-k generators of type (n, psi); the greedy resolution gives
        # the same Ext by a route that knows nothing of blocks
        top = 3
        simples = [(n, blk, simple_module(n, blk, support))
                   for n in support for blk in character_blocks(n)]
        for x in sources():
            steps = resolve_by_representables(x, top + 1)
            greedy = greedy_resolve(x, top + 1)
            for n, blk, s in simples:
                counts = [generator_types(step).count((n, blk.key)) for step in steps]
                expected = [blk.degree * c for c in counts[:top + 1]]
                minimal = _hom_cochain(steps, s)
                assert all(d.is_zero() for d in minimal.diffs), (x.name, n, blk.key)
                assert minimal.cohomology_dims(top) == expected, (x.name, n, blk.key)
                assert _hom_cochain(greedy, s).cohomology_dims(top) == expected

    def test_atom_matches_the_prime_set_complex(self):
        support = support_of_divisors(30)
        steps = resolve_by_representables(atomic_module(1, 1, support), 4)
        cx = build_complex([2, 3, 5], 3, support)
        assert [len(step.gens) for step in steps] == [1, 3, 3, 1, 0]
        for k in range(4):
            # resolution.py's degree-k term: semifree modules, that is
            # trivial-block projectives, at the products of k primes
            assert sorted(steps[k].gens) == sorted(prod(t) for t in cx.tuples[k])
            assert all(blk.key == (1, 0) for blk in steps[k].blocks)

    def test_resolution_stops_by_the_largest_prime_count(self):
        # max omega(n) over the 27-level closure is 3
        x = atomic_module(1, 1, CLOSURE_27)
        steps = resolve_by_representables(x, 5)
        assert [len(step.gens) for step in steps] == [1, 6, 12, 8, 0, 0]
        assert ext_via_resolution(x, regular_module(CLOSURE_27), 5) == [0, 0, 0, 1, 0, 0]

    def test_negative_depth_is_refused(self):
        with pytest.raises(ValueError):
            resolve_by_representables(regular_module(S123), -1)
        assert len(resolve_by_representables(regular_module(S123), 0)) == 1


class TestMinimalAgainstGreedyResolution:
    """Ext dimensions, not generators, against the greedy resolution by
    whole representables and, into the regular module, the derived limits."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(NON_DIRECTED + [S12, support_of_divisors(36)]),
           st.integers(0, 10 ** 6),
           st.sampled_from(["random->regular", "regular->random", "random->random"]))
    def test_ext_dims(self, support, seed, kind):
        reg, x, y = (regular_module(support), random_module(support, seed),
                     random_module(support, seed + 1))
        src, tgt = {"random->regular": (x, reg), "regular->random": (reg, x),
                    "random->random": (x, y)}[kind]
        self.assert_same_ext(src, tgt, reg)

    @pytest.mark.parametrize("support", NON_DIRECTED + [S12, support_of_divisors(36)])
    def test_simple_sources(self, support):
        # the syzygies of random modules lie in the trivial block, those of
        # S_{n,psi} in psi's block; the sum of all simples is a target that
        # every generator sees
        simples = [simple_module(n, blk, support)
                   for n in support for blk in character_blocks(n)]
        reg, all_simples = regular_module(support), direct_sum(simples)
        for x in simples:
            for y in [reg, random_module(support, 7), all_simples]:
                self.assert_same_ext(x, y, reg)

    @staticmethod
    def assert_same_ext(x, y, reg, top=3):
        dims = ext_via_resolution(x, y, top)
        assert dims == _hom_cochain(greedy_resolve(x, top + 1), y).cohomology_dims(top)
        if y is reg:
            assert dims == lim_derived(dual_system(x), top).dims


class TestCandidatesAgainstAllUnitsSum:
    """_ModuleStage.candidates builds each column of sum_g w_g A(g) when the
    cover asks for it, from the transposed actions of one level at a time;
    the oracle sums whole matrices first.  Both must yield the same vectors,
    entry order included, in the same order, for every block at every
    level."""

    @pytest.mark.parametrize("support", [support_of_divisors(36), support_of_divisors(60),
                                         S123, FOUR_CYCLE])
    def test_every_block_at_every_level(self, support):
        mods = [regular_module(support), tau_ru_module(support),
                atomic_module(1, 1, support), atomic_module(max(support), 2, support)]
        mods += [semifree_module(n, support) for n in support]
        mods += [random_module(support, seed) for seed in range(3)]
        for x in mods:
            stage = _ModuleStage(x)
            # increasing levels, as the cover walks them, then a level revisited
            for n in list(support) + [1]:
                for blk in character_blocks(n):
                    got = [list(v.items()) for v in stage.candidates(n, blk)]
                    want = [list(v.items()) for v in all_units_candidates(x, n, blk)]
                    assert got == want, (x.name, n, blk.key)


class TestExtMetamorphic:
    """Identities Ext must satisfy, over small random supports."""

    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6), st.data())
    def test_representables_are_projective(self, support, seed, data):
        n = data.draw(st.sampled_from(list(support)))
        y = random_module(support, seed)
        # Hom out of the representable at n is evaluation at n
        assert ext_via_resolution(free_module(n, support), y, 2) == [y.dim(n), 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6))
    def test_additive_over_direct_sums(self, support, seed):
        x1, x2, y1, y2 = (random_module(support, seed + i) for i in range(4))
        def add(a, b):
            return [p + q for p, q in zip(a, b)]
        assert ext_via_resolution(direct_sum([x1, x2]), y1, 2) == add(
            ext_via_resolution(x1, y1, 2), ext_via_resolution(x2, y1, 2))
        assert ext_via_resolution(x1, direct_sum([y1, y2]), 2) == add(
            ext_via_resolution(x1, y1, 2), ext_via_resolution(x1, y2, 2))

    @settings(max_examples=50, deadline=None)
    @given(small_supports, st.integers(0, 10 ** 6))
    def test_invariant_under_conjugation(self, support, seed):
        x = random_module(support, seed)
        y = random_module(support, seed + 1)
        dims = ext_via_resolution(x, y, 2)
        assert ext_via_resolution(scramble(x, seed), y, 2) == dims
        assert ext_via_resolution(x, scramble(y, seed), 2) == dims


class TestExtViaResolution:
    def test_degree_zero_matches_hom(self):
        reg = regular_module(S12)
        for x in [regular_module(S12), semifree_module(2, S12),
                  atomic_module(4, 2, S12), random_module(S12, 5)]:
            dims = ext_via_resolution(x, reg, 2)
            assert dims[0] == hom_direct(x, reg).dimension, x.name

    def test_atom_has_one_dimensional_first_extension(self):
        assert ext_via_resolution(atomic_module(1, 1, S123),
                                  regular_module(S123), 2) == [0, 1, 0]

    def test_matches_derived_limits(self):
        reg = regular_module(S12)
        for x in [regular_module(S12), tau_ru_module(S12),
                  atomic_module(1, 1, S12), random_module(S12, 6)]:
            assert ext_via_resolution(x, reg, 3) == lim_derived(dual_system(x), 3).dims

    def test_vanishing_on_directed_supports(self):
        reg = regular_module(S12)
        assert ext_via_resolution(reg, reg, 3) == [4, 0, 0, 0]

    def test_zero_module(self):
        assert ext_via_resolution(zero_module(S123), regular_module(S123), 1) == [0, 0]

    def test_general_target(self):
        # the resolution route accepts any valid target, not just the regular one
        x = atomic_module(1, 1, S123)
        y = direct_sum([regular_module(S123), semifree_module(2, S123)])
        dims = ext_via_resolution(x, y, 1)
        assert dims[0] == hom_direct(x, y).dimension


class TestSequentialTowers:
    def test_surjective_towers_have_no_lim1(self):
        d = dual_system(regular_module(S12))
        dims, maps = tower_along_chain(d, [1, 2, 4, 12])
        rep = sequential_lim1(dims, maps)
        assert rep.lim1_dim == 0 and rep.mittag_leffler

    def test_chain_levels_are_checked_before_any_dimension(self):
        d = dual_system(regular_module(S12))
        for chain in [[1, 2, 4, 8], [24, 1], [1, 3, 2], [1, 2, 6, 4], [8]]:
            with pytest.raises(ValueError):
                tower_along_chain(d, chain)

    def test_zero_maps_leave_top_free(self):
        z = QMatrix.zeros(1, 1)
        rep = sequential_lim1([1, 1, 1], [z, z])
        assert rep.lim_dim == 1 and rep.lim1_dim == 0 and not rep.mittag_leffler

    def test_identity_tower(self):
        i = QMatrix.identity(1)
        rep = sequential_lim1([1, 1, 1], [i, i])
        assert rep.lim_dim == 1 and rep.lim1_dim == 0 and rep.mittag_leffler

    def test_closed_form_agrees_with_elimination(self):
        # 1,200 seeded towers of 1 to 6 spaces, some zero-dimensional, with
        # zero maps, maps that are not onto and maps that are
        rng = random.Random(26)
        flags = set()
        for _ in range(1200):
            dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
            maps = []
            for k in range(len(dims) - 1):
                shape = (dims[k], dims[k + 1])
                if rng.random() < 0.2:
                    maps.append(QMatrix.zeros(*shape))
                else:
                    maps.append(QMatrix(*shape, [rng.choice([-2, -1, 0, 0, 1, 3, Fraction(1, 2)])
                                                 for _ in range(shape[0] * shape[1])]))
            got = sequential_lim1(dims, maps)
            assert got == eliminating_sequential_lim1(dims, maps), (dims, maps)
            flags.add(got.mittag_leffler)
        assert flags == {True, False}

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            sequential_lim1([1, 1], [])
        with pytest.raises(ValueError):
            sequential_lim1([1, 2], [QMatrix.zeros(2, 1)])


class TestCochainComplex:
    def test_space_dims_and_composability(self):
        d0 = QMatrix.zeros(2, 3)
        d1 = QMatrix.zeros(1, 2)
        cx = CochainComplex([d0, d1])
        assert [cx.space_dim(k) for k in range(3)] == [3, 2, 1]
        assert cx.check_d_squared()

    def test_rejects_non_composable(self):
        with pytest.raises(ValueError):
            CochainComplex([QMatrix.zeros(2, 3), QMatrix.zeros(1, 5)])


class TestUptoSupports:
    def test_upto_ten_cross_checks(self):
        s = divisor_closure(list(range(1, 11)))
        reg = regular_module(s)
        for x in [regular_module(s), atomic_module(4, 2, s), random_module(s, 3)]:
            hd = hom_direct(x, reg)
            hl = hom_via_limit(x)
            assert hd.dimension == hl.dimension
            assert ext_via_resolution(x, reg, 2) == lim_derived(dual_system(x), 2).dims
