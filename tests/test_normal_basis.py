from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycrep.cyclic_site import divisor_closure, support_of_divisors, totient, units
from cycrep.linalg import QMatrix, rank, solve
from cycrep.modules import OutCycModule, regular_module, validate
from cycrep import normal_basis
from cycrep.normal_basis import (
    ClassifierFamily,
    SquareCheck,
    _check_equivariance,
    _check_naturality,
    _check_rank,
    _columns_to_matrix,
    _phi_columns,
    _reducer,
    assemble,
    classifier_report,
    classifying_element,
    map_from_classifier,
    normal_basis_iso,
    normal_basis_report,
    unscaled_family,
)
from cycrep.rep_ring import (
    MonomialReducer,
    RUElement,
    mul,
    restrict_proj,
    tau_ru_module,
    transfer_ideal,
)

from oracles import (
    all_unit_check_equivariance,
    dense_rank,
    fraction_assemble,
    fraction_classifier_report,
    generator_check_equivariance,
    per_unit_squares,
    stored_values,
)

S12 = support_of_divisors(12)
S60 = support_of_divisors(60)


class TestClassifyingElement:
    def test_level_one_is_the_unit(self):
        assert classifying_element(2, 0) == QMatrix.column([1])
        assert classifying_element(5, 0) == QMatrix.column([1])

    def test_order_two(self):
        # -X represents the unit of the quotient: 1 + X lies in the ideal
        col = classifying_element(2, 1)
        red = MonomialReducer(2)
        assert red.reduce_sparse({0: Fraction(1)}) == {1: Fraction(-1)}
        assert col == QMatrix.column([-1])

    def test_order_four(self):
        # -1/2 (X + X^2) reduced modulo (1 + X^2): basis monomials X^2, X^3
        col = classifying_element(2, 2)
        assert col == QMatrix.column([Fraction(-1, 2), Fraction(1, 2)])
        # same element written in field terms: (1 - zeta_4) / 2
        red = MonomialReducer(4)
        half = Fraction(1, 2)
        field_form = red.reduce_sparse({0: half, 1: -half})
        assert field_form == {2: Fraction(-1, 2), 3: Fraction(1, 2)}

    def test_membership_in_ambient_coset(self):
        # the section lift differs from the ambient representative by an
        # ideal element
        for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
            n = p ** k
            red = MonomialReducer(n)
            col = classifying_element(p, k)
            lift = [Fraction(0)] * n
            for j, e in enumerate(red.basis):
                lift[e] = col[j, 0]
            ambient = [Fraction(0)] * n
            for i in range(k):
                ambient[pow(p, i, n)] += Fraction(-1, p ** (k - 1))
            diff = QMatrix.column([a - b for a, b in zip(ambient, lift)])
            assert solve(transfer_ideal(n), diff) is not None

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            classifying_element(6, 1)


class TestAssemble:
    def test_unit_at_level_one(self):
        fam = assemble(S12)
        assert fam.elements[1] == MonomialReducer(1).reduce_sparse({0: Fraction(1)})

    def test_coprime_products(self):
        elements = assemble(S60).elements
        for n in S60:
            for m in S60:
                from math import gcd
                if n > 1 and m > 1 and gcd(n, m) == 1 and n * m in S60:
                    red = MonomialReducer(n * m)
                    lhs = elements[n * m]
                    rhs = red.mul_sparse(
                        red.inflate_from(MonomialReducer(n), elements[n]),
                        red.inflate_from(MonomialReducer(m), elements[m]))
                    assert lhs == rhs, (n, m)

    def test_assembly_order_independent(self):
        # 12 = 4 * 3 assembled either way
        red = MonomialReducer(12)
        elements = assemble(S12).elements
        a = red.inflate_from(MonomialReducer(4), elements[4])
        b = red.inflate_from(MonomialReducer(3), elements[3])
        assert red.mul_sparse(a, b) == red.mul_sparse(b, a) == elements[12]

    def test_matches_explicit_product_at_six(self):
        # x_6 = inflation of x_2 times inflation of x_3, in the ambient ring
        amb = mul(restrict_proj(6, 2, RUElement(2, [0, -1])),
                  restrict_proj(6, 3, RUElement(3, [0, -1, 0])))
        red = MonomialReducer(6)
        fam = assemble(support_of_divisors(6))
        assert red.reduce_sparse({i: c for i, c in enumerate(amb.coeffs) if c}) \
            == fam.elements[6]


class TestMorphism:
    def test_level_matrices_small(self):
        iso = normal_basis_iso(support_of_divisors(2))
        # level 1: 1 -> 1; level 2: the basis unit maps to the quotient unit
        assert iso.mats[1] == QMatrix.column([1])
        assert iso.mats[2] == QMatrix.column([-1])  # the unit is -X in basis {X}

    def test_full_validation_on_small_supports(self):
        for support in [support_of_divisors(4), S12]:
            iso = normal_basis_iso(support)
            assert iso.validate() == []
            assert validate(iso.source) == []
            assert validate(iso.target) == []

    def test_invertible_at_every_level(self):
        for support in [S12, S60]:
            iso = normal_basis_iso(support)
            for n in support:
                mat = iso.mats[n]
                assert mat.rows == mat.cols == totient(n)
                assert rank(mat) == totient(n)

    def test_naturality_against_materialized_modules(self):
        support = S12
        iso = normal_basis_iso(support)
        reg = regular_module(support)
        tau = tau_ru_module(support)
        for (a, b) in support.covering_pairs():
            assert tau.restriction_step(a, b) @ iso.mats[a] == \
                iso.mats[b] @ reg.restriction_step(a, b)

    def test_report_shape(self):
        rep = normal_basis_report(S12)
        assert rep.ok
        assert {l.level for l in rep.levels} == set(S12)
        assert {(s.source, s.target) for s in rep.squares} == set(S12.covering_pairs())


class TestScalingNecessity:
    def test_unscaled_family_fails_some_prime_power_square(self):
        rep = classifier_report(unscaled_family(S12))
        failing = [(s.source, s.target) for s in rep.squares if not s.natural]
        assert failing, "the unscaled family must break restriction compatibility"
        assert (2, 4) in failing  # a covering pair of 2-power levels above exponent 1

    def test_unscaled_family_raises_in_strict_constructor(self):
        with pytest.raises(ValueError):
            map_from_classifier(unscaled_family(S12))

    def test_scaled_family_passes_strict_constructor(self):
        f = map_from_classifier(assemble(S12))
        assert f.validate() == []


class TestReportBuildsNoModule:
    def test_report_over_divisors_of_360(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the normal-basis report built a module")

        monkeypatch.setattr(OutCycModule, "__init__", refuse)
        rep = normal_basis_report(support_of_divisors(360))
        assert rep.ok
        assert all(rep.mats[n].shape() == (totient(n), totient(n)) for n in rep.support)

    def test_iso_wraps_the_report_matrices(self):
        rep, iso = normal_basis_report(S12), normal_basis_iso(S12)
        assert iso.mats == rep.mats
        assert (iso.source.name, iso.target.name) == ("regular", "tauRU")


class TestStoredQuotient:
    @pytest.mark.parametrize("top", [12, 90, 360])
    def test_restriction_entries_are_fractions(self, top):
        support = support_of_divisors(top)
        tau = tau_ru_module(support)
        for pair in support.covering_pairs():
            assert all(type(v) is Fraction for v in stored_values(tau.restriction_step(*pair))), pair


class TestEquivarianceAlongTheTree:
    """The check along the Cayley tree against the all-units check of
    oracles.py."""

    @pytest.mark.parametrize("scaled", [True, False])
    def test_orbits_pass_both(self, scaled):
        family = assemble(support_of_divisors(360), scaled=scaled)
        for n in family.support:
            cols = _phi_columns(family, n)
            assert _check_equivariance(n, cols)
            assert all_unit_check_equivariance(_reducer(n), n, cols)

    def test_one_corrupted_column_is_rejected(self):
        family = assemble(support_of_divisors(120))
        for n in [5, 8, 12, 24, 40, 120]:
            cols = _phi_columns(family, n)
            for u in units(n):
                if u == 1:
                    continue
                for bad_col in (cols[1], {e: 2 * c for e, c in cols[u].items()}):
                    bad = dict(cols)
                    bad[u] = bad_col
                    assert not _check_equivariance(n, bad), (n, u)
                    assert not all_unit_check_equivariance(_reducer(n), n, bad), (n, u)


class TestRankAgainstDenseOracle:
    """The sparse rank of the orbit columns against dense Gaussian
    elimination of the level matrix."""

    @pytest.mark.parametrize("scaled", [True, False])
    def test_agrees_at_every_level(self, scaled):
        family = assemble(support_of_divisors(360), scaled=scaled)
        for n in family.support:
            cols = _phi_columns(family, n)
            want = dense_rank(_columns_to_matrix(n, cols, family.scales[n])) == totient(n)
            assert _check_rank(n, cols) == want, n
            assert want, n

    @pytest.mark.parametrize("n", [12, 840])
    def test_a_duplicated_column_is_rejected(self, n):
        cols = _phi_columns(assemble(support_of_divisors(n)), n)
        assert _check_rank(n, cols)
        bad = dict(cols)
        bad[n - 1] = cols[1]
        assert not _check_rank(n, bad)


SUPPORTS = {"12": S12, "60": S60, "360": support_of_divisors(360),
            "840": support_of_divisors(840),
            "closure(10,14,15,21)": divisor_closure([10, 14, 15, 21])}


def assert_matches_fraction_path(support, scaled):
    family = assemble(support, scaled=scaled)
    want = fraction_assemble(support, scaled)
    # same values and the same key order, which the demo prints
    assert {n: list(x.items()) for n, x in family.elements.items()} == \
        {n: list(x.items()) for n, x in want.items()}
    report = classifier_report(family)
    mats, levels, squares = fraction_classifier_report(support, scaled)
    assert report.mats == mats
    assert report.levels == levels
    assert report.squares == squares


class TestAgainstFractionPath:
    """The integer orbit arithmetic against the Fraction path of oracles.py."""

    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("name", list(SUPPORTS))
    def test_named_supports(self, name, scaled):
        assert_matches_fraction_path(SUPPORTS[name], scaled)

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(1, 180), min_size=1, max_size=4),
           scaled=st.booleans())
    def test_divisor_closed_supports(self, seeds, scaled):
        assert_matches_fraction_path(divisor_closure(seeds), scaled)


class TestIntegerArithmetic:
    def test_vectors_and_orbit_columns_are_ints(self):
        family = assemble(support_of_divisors(2520))
        for n in family.support:
            assert all(type(c) is int for c in family.vectors[n].values()), n
            for col in _phi_columns(family, n).values():
                assert all(type(c) is int for c in col.values()), n
            assert type(family.scales[n]) is Fraction, n

    def test_scaled_and_unscaled_share_the_vectors(self):
        scaled, unscaled = assemble(S60), unscaled_family(S60)
        assert scaled.vectors == unscaled.vectors
        assert set(unscaled.scales.values()) == {1}
        assert scaled.scales[4] == Fraction(-1, 2)
        # the product of the scales at 4, 3 and 5
        assert scaled.scales[60] == Fraction(-1, 2) * -1 * -1

    def test_level_matrix_entries_are_fractions(self):
        report = normal_basis_report(S60)
        for n, mat in report.mats.items():
            assert all(type(v) is Fraction for v in stored_values(mat)), n


class TestScaleNegativeControls:
    @pytest.mark.parametrize("top, level", [(12, 4), (360, 4), (360, 45)])
    def test_a_doubled_scale_fails_exactly_its_squares(self, top, level):
        family = assemble(support_of_divisors(top))
        family.scales[level] *= 2
        report = classifier_report(family)
        failing = {(s.source, s.target) for s in report.squares if not s.natural}
        touching = {(n, m) for n, m in family.support.covering_pairs() if level in (n, m)}
        assert failing == touching
        assert all(l.invertible and l.equivariant for l in report.levels)

    def test_comparing_without_the_scale_ratio_fails(self):
        family = assemble(S12)
        cols_2, cols_4 = _phi_columns(family, 2), _phi_columns(family, 4)
        ratio = family.scales[2] / family.scales[4]
        assert ratio == 2
        assert _check_naturality(2, 4, ratio, cols_2, cols_4) is None
        assert _check_naturality(2, 4, Fraction(1), cols_2, cols_4) is not None
        unit_scales = ClassifierFamily(S12, dict.fromkeys(S12, Fraction(1)), family.vectors)
        failing = [(s.source, s.target) for s in classifier_report(unit_scales).squares
                   if not s.natural]
        assert (2, 4) in failing


def doubled_family(support):
    """The scaled family with the scale of every other level doubled: a
    square fails when exactly one of its levels was doubled."""
    family = assemble(support)
    for n in list(support)[1::2]:
        family.scales[n] *= 2
    return family


FAMILIES = {"scaled": assemble, "unscaled": unscaled_family, "doubled": doubled_family}


class TestEquivarianceAgainstGeneratorLoop:
    """The check along the Cayley tree against the generator-by-unit loop
    of oracles.py that it replaced."""

    @pytest.mark.parametrize("kind", list(FAMILIES))
    @pytest.mark.parametrize("top", [12, 360, 840])
    def test_matches(self, top, kind):
        family = FAMILIES[kind](support_of_divisors(top))
        for n in family.support:
            cols = _phi_columns(family, n)
            assert _check_equivariance(n, cols), n
            assert generator_check_equivariance(_reducer(n), n, cols), n

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(1, 180), min_size=1, max_size=4),
           kind=st.sampled_from(list(FAMILIES)))
    def test_matches_on_divisor_closures(self, seeds, kind):
        family = FAMILIES[kind](divisor_closure(seeds))
        for n in family.support:
            cols = _phi_columns(family, n)
            assert _check_equivariance(n, cols) == generator_check_equivariance(
                _reducer(n), n, cols), n

    def test_every_corrupted_top_column_fails(self):
        # the column of 1 too: each edge out of 1 then fails
        cols = _phi_columns(assemble(S60), 60)
        for u in units(60):
            bad = {**cols, u: {e: 2 * c for e, c in cols[u].items()}}
            assert not _check_equivariance(60, bad), u
            assert not generator_check_equivariance(_reducer(60), 60, bad), u

    def test_act_unit_calls_per_pass(self, monkeypatch):
        # over divisors(840): 840 orbit columns and phi(n) - 1 per level for
        # the check, 808 in all, where the generator loop made 3,008
        calls = 0
        act = MonomialReducer.act_unit

        def counting(self, l, vec):
            nonlocal calls
            calls += 1
            return act(self, l, vec)

        monkeypatch.setattr(MonomialReducer, "act_unit", counting)
        assert normal_basis_report(support_of_divisors(840)).ok
        assert calls == 840 + 808


class TestNaturalityAtOneUnit:
    """The squares checked at the unit 1 against every unit (oracles.py)."""

    @pytest.mark.parametrize("kind", list(FAMILIES))
    @pytest.mark.parametrize("top", [12, 360, 840])
    def test_matches_every_unit(self, top, kind):
        family = FAMILIES[kind](support_of_divisors(top))
        squares = classifier_report(family).squares
        assert squares == per_unit_squares(family)
        assert all(s.natural for s in squares) == (kind == "scaled")

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(1, 180), min_size=1, max_size=4),
           kind=st.sampled_from(list(FAMILIES)))
    def test_matches_every_unit_on_divisor_closures(self, seeds, kind):
        family = FAMILIES[kind](divisor_closure(seeds))
        assert classifier_report(family).squares == per_unit_squares(family)

    @pytest.mark.parametrize("u", list(units(60)))
    def test_one_corrupted_top_column(self, monkeypatch, u):
        # doubling the level-60 column of u fails each square into 60 whose
        # fiber of 1 holds u, and level 60's equivariance whatever u is
        orbit = normal_basis._phi_columns

        def corrupted(family, n):
            cols = orbit(family, n)
            if n == 60:
                cols[u] = {e: 2 * c for e, c in cols[u].items()}
            return cols

        monkeypatch.setattr(normal_basis, "_phi_columns", corrupted)
        report = normal_basis_report(S60)
        into_top = {(s.source, s.target): s for s in report.squares if s.target == 60}
        assert set(into_top) == {(12, 60), (20, 60), (30, 60)}
        for (n, _), square in into_top.items():
            in_fiber = (u - 1) % n == 0
            assert square == SquareCheck(n, 60, not in_fiber, 1 if in_fiber else None), (n, u)
        assert not next(l for l in report.levels if l.level == 60).equivariant
        assert not report.ok

    def test_a_check_of_no_unit_is_killed(self, monkeypatch):
        monkeypatch.setattr(normal_basis, "_check_naturality", lambda *args: None)
        for kind in ("unscaled", "doubled"):
            family = FAMILIES[kind](S12)
            assert classifier_report(family).squares != per_unit_squares(family), kind
