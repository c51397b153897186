import re

import pytest
from hypothesis import given, settings, strategies as st

import cycrep.modules as modules_mod

from cycrep.cyclic_site import SupportSet, divisor_closure, support_of_divisors, totient, units
from cycrep.linalg import QMatrix, rank, solve_matrix
from cycrep.modules import (
    InverseSystem,
    ModuleMorphism,
    OutCycModule,
    atomic_module,
    cokernel_projection,
    conjugate_module,
    direct_sum,
    dual_system,
    free_module,
    identity_morphism,
    morphism_factor,
    random_module,
    regular_module,
    restriction_matrix,
    semifree_module,
    validate,
    validate_actions,
    validate_paths,
    zero_module,
    zero_morphism,
)
from cycrep.hom_ext import ext_via_resolution, hom_direct, hom_via_limit, lim_derived
from cycrep.rep_ring import tau_ru_module
from cycrep.resolution import build_complex
from cycrep.serialize import module_to_json

from oracles import (all_pairs_validate_actions, all_unit_morphism_violations,
                     all_unit_validate_squares, every_inverse_hom_via_limit, fixed_space_dim,
                     flat_entries, generator_validate_actions,
                     per_unit_conjugate_module,
                     per_unit_direct_sum, per_unit_morphism_factor, scramble,
                     scramble_transforms)

S12 = support_of_divisors(12)
S60 = support_of_divisors(60)


class TestValidation:
    def test_constructors_validate(self):
        for mod in [regular_module(S12), free_module(4, S12), semifree_module(6, S12),
                    atomic_module(4, 2, S12), zero_module(S12), random_module(S12, 5)]:
            assert validate(mod) == [], mod.name

    def test_regular_validates_on_larger_support(self):
        assert validate(regular_module(S60)) == []

    def test_single_level_support_vacuous(self):
        assert validate(atomic_module(1, 3, SupportSet([1]))) == []

    def test_perturbed_restriction_names_failing_square(self):
        reg = regular_module(S12)
        res = {pair: reg.restriction_step(*pair) for pair in S12.covering_pairs()}
        bad = res[(2, 4)]
        tweaked = QMatrix(bad.rows, bad.cols, flat_entries(bad))
        tweaked[0, 0] = tweaked[0, 0] + 1
        res[(2, 4)] = tweaked
        actions = {n: {l: reg.action(n, l) for l in units(n)} for n in S12}
        broken = OutCycModule(S12, dict(reg.dims), actions, res)
        violations = validate(broken)
        assert violations and any("2->4" in v for v in violations)

    def test_doubled_step_is_reported_at_its_square_both_ways(self):
        # doubling the step 2 -> 4 keeps every restriction equivariant but
        # breaks the square 2 -> 4, 6 -> 12, and only that one
        reg = regular_module(S12)
        res = {pair: reg.restriction_step(*pair) for pair in S12.covering_pairs()}
        res[(2, 4)] = res[(2, 4)].scale(2)
        actions = {n: {l: reg.action(n, l) for l in units(n)} for n in S12}
        broken = OutCycModule(S12, dict(reg.dims), actions, res)
        assert validate_paths(broken) == ["path independence fails: 2 -> 12 via 2 vs 3"]
        assert validate(broken) == validate_paths(broken)
        assert dual_system(broken).validate() == ["path independence fails: 12 -> 2 via 2 vs 3"]

    def test_a_module_without_tables_is_refused(self):
        with pytest.raises(TypeError):
            OutCycModule(S12, {n: 1 for n in S12})


class TestRegularModule:
    def test_dims(self):
        reg = regular_module(S12)
        assert reg.dims == {n: totient(n) for n in S12}

    def test_restriction_sums_over_fibers(self):
        reg = regular_module(S12)
        res = reg.restriction_step(2, 4)
        # the single basis unit at level 2 goes to the sum of both units at level 4
        assert res == QMatrix.from_rows([[1], [1]])

    def test_injective_restrictions(self):
        reg = regular_module(S60)
        for pair in S60.covering_pairs():
            res = reg.restriction_step(*pair)
            assert rank(res) == res.cols


class TestFreeModule:
    def test_level_one_is_constant(self):
        f = free_module(1, S12)
        assert all(f.dim(n) == 1 for n in S12)
        for pair in S12.covering_pairs():
            assert f.restriction_step(*pair) == QMatrix.identity(1)

    def test_vanishing_below_generator(self):
        f = free_module(2, support_of_divisors(4))
        assert [f.dim(n) for n in [1, 2, 4]] == [0, 1, 1]

    def test_represents_evaluation(self):
        # morphisms out of the representable at n correspond to level-n values
        for n in [1, 2, 3, 4, 6]:
            f = free_module(n, S12)
            for x in [regular_module(S12), semifree_module(2, S12),
                      random_module(S12, 31), atomic_module(6, 2, S12)]:
                assert hom_direct(f, x).dimension == x.dim(n), (n, x.name)

    def test_represents_evaluation_on_larger_support(self):
        reg60 = regular_module(S60)
        rnd60 = random_module(S60, 13)
        for n in [1, 12, 60]:
            f = free_module(n, S60)
            assert hom_direct(f, reg60).dimension == reg60.dim(n)
            assert hom_direct(f, rnd60).dimension == rnd60.dim(n)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            free_module(5, S12)


class TestSemifreeModule:
    def test_constant_on_multiples(self):
        f = semifree_module(1, support_of_divisors(6))
        assert all(f.dim(n) == 1 for n in f.support)

    def test_zero_when_no_multiples(self):
        f = semifree_module(6, SupportSet([1, 2, 3]))
        assert f.is_zero()

    def test_corepresents_invariants(self):
        for n in [1, 2, 3, 4, 6, 12]:
            f = semifree_module(n, S12)
            for x in [regular_module(S12), random_module(S12, 77),
                      direct_sum([semifree_module(2, S12), atomic_module(12, 2, S12)])]:
                expected = fixed_space_dim([x.action(n, l) for l in units(n)])
                assert hom_direct(f, x).dimension == expected, (n, x.name)


class TestAtomicModule:
    def test_shape(self):
        a = atomic_module(4, 2, S12)
        assert a.dim(4) == 2 and sum(a.dims.values()) == 2

    def test_zero_dimension_allowed(self):
        assert atomic_module(3, 0, S12).is_zero()

    def test_negative_dimension_refused(self):
        with pytest.raises(ValueError, match="d = -1"):
            atomic_module(2, -1, S12)

    def test_always_valid(self):
        for n in [1, 2, 6, 12]:
            for d in [0, 1, 3]:
                assert validate(atomic_module(n, d, S12)) == []


class TestRestrictionMatrix:
    def test_identity_on_equal_levels(self):
        reg = regular_module(S12)
        assert restriction_matrix(reg, 4, 4) == QMatrix.identity(2)

    def test_fiber_sum_on_covering_pair(self):
        reg = regular_module(S12)
        assert restriction_matrix(reg, 4, 2) == reg.restriction_step(2, 4)

    def test_path_independence_to_twelve(self):
        reg = regular_module(S12)
        via_2 = reg.restriction_step(6, 12) @ reg.restriction_step(3, 6) \
            @ reg.restriction_step(1, 3)
        via_3 = reg.restriction_step(4, 12) @ reg.restriction_step(2, 4) \
            @ reg.restriction_step(1, 2)
        assert via_2 == via_3 == restriction_matrix(reg, 12, 1)

    def test_membership_guard(self):
        with pytest.raises(ValueError):
            restriction_matrix(regular_module(S12), 24, 12)


class TestMorphisms:
    def test_identity_and_zero_validate(self):
        reg = regular_module(S12)
        assert identity_morphism(reg).validate() == []
        assert zero_morphism(reg, reg).validate() == []

    def test_shape_violation_detected(self):
        reg = regular_module(S12)
        mats = {n: QMatrix.zeros(reg.dim(n), reg.dim(n)) for n in S12}
        mats[4] = QMatrix.zeros(1, 2)
        assert ModuleMorphism(reg, reg, mats).validate() != []


def _fold(support):
    # a nontrivial natural map: fold the regular module onto the constants;
    # summation over fibers forces the 1/totient weights
    from fractions import Fraction
    reg = regular_module(support)
    return ModuleMorphism(reg, semifree_module(1, support),
                          {n: QMatrix.from_rows([[Fraction(1, reg.dim(n))] * reg.dim(n)])
                           for n in support})


class TestMorphismFactor:
    def test_identity_has_zero_kernel_and_cokernel(self):
        reg = regular_module(S12)
        fact = morphism_factor(identity_morphism(reg))
        assert fact.kernel.is_zero() and fact.cokernel.is_zero()
        assert fact.image.dims == reg.dims

    def test_zero_morphism(self):
        reg = regular_module(S12)
        a = atomic_module(4, 2, S12)
        fact = morphism_factor(zero_morphism(reg, a))
        assert fact.kernel.dims == reg.dims
        assert fact.cokernel.dims == a.dims

    def test_all_pieces_validate_and_compose(self):
        fold = _fold(S12)
        reg = fold.source
        assert fold.validate() == []
        fact = morphism_factor(fold)
        for piece in [fact.kernel, fact.image, fact.cokernel]:
            assert validate(piece) == [], piece.name
        for mor in [fact.kernel_inclusion, fact.image_inclusion,
                    fact.source_to_image, fact.cokernel_projection]:
            assert mor.validate() == []
        assert fact.cokernel.is_zero()  # the fold is onto
        for n in S12:
            assert fact.kernel.dim(n) == reg.dim(n) - 1

    def test_kernel_restriction_is_unique_solution(self):
        fold = _fold(S12)
        reg = fold.source
        fact = morphism_factor(fold)
        for (a, b) in S12.covering_pairs():
            k_a = fact.kernel_inclusion.mats[a]
            k_b = fact.kernel_inclusion.mats[b]
            carried = reg.restriction_step(a, b) @ k_a
            x = solve_matrix(k_b, carried)
            assert x is not None and x == fact.kernel.restriction_step(a, b)


class TestDirectSumAndConjugation:
    def test_direct_sum_dims(self):
        s = direct_sum([semifree_module(2, S12), atomic_module(4, 2, S12)])
        assert s.dim(4) == 3 and validate(s) == []

    def test_conjugation_preserves_validity_and_homs(self):
        x = direct_sum([semifree_module(2, S12), free_module(3, S12)])
        t = {n: QMatrix.identity(x.dim(n)) for n in S12}
        # a shear at level 12 only, inverse exists over the integers
        if x.dim(12) >= 2:
            m = QMatrix.identity(x.dim(12))
            m[0, 1] = 1
            t[12] = m
        y = conjugate_module(x, t)
        assert validate(y) == []
        reg = regular_module(S12)
        assert hom_direct(x, reg).dimension == hom_direct(y, reg).dimension

    def test_random_modules_validate(self):
        for seed in range(12):
            assert validate(random_module(S12, seed)) == [], seed


class TestInverseSystems:
    def test_dual_shapes_and_validity(self):
        reg = regular_module(S12)
        d = dual_system(reg)
        assert d.dims == reg.dims
        assert d.validate() == []
        for (a, b) in S12.covering_pairs():
            assert d.structure_step(a, b) == reg.restriction_step(a, b).transpose()

    def test_dual_of_atom(self):
        d = dual_system(atomic_module(1, 1, SupportSet([1, 2, 3])))
        assert d.dim(1) == 1 and d.dim(2) == 0 and d.dim(3) == 0

    def test_dual_of_regular_has_surjective_maps(self):
        d = dual_system(regular_module(S60))
        for (a, b) in S60.covering_pairs():
            step = d.structure_step(a, b)
            assert rank(step) == step.rows

    def test_double_dual_dimensions(self):
        x = random_module(S12, 3)
        dd = dual_system(x)
        assert {n: dd.dim(n) for n in S12} == x.dims

    def test_composite_structure_map(self):
        d = dual_system(regular_module(S12))
        direct = d.structure(1, 12)
        step = d.structure_step(1, 2) @ d.structure_step(2, 4) @ d.structure_step(4, 12)
        assert direct == step

    @pytest.mark.parametrize("build", [regular_module, tau_ru_module], ids=["regular", "tauRU"])
    def test_composites_are_the_chain_products_and_cached(self, build):
        s = support_of_divisors(360)
        d = dual_system(build(s))
        for n in s:
            for m in s.multiples_of(n):
                levels = s.chain(n, m)
                product = QMatrix.identity(d.dim(n))
                for a, b in zip(levels, levels[1:]):
                    product = product @ d.structure_step(a, b)
                comp = d.structure(n, m)
                assert comp == product, (n, m)
                assert d.structure(n, m) is comp, (n, m)

    def test_composite_structure_map_refuses_bad_levels(self):
        d = dual_system(regular_module(S12))
        for n, m in [(1, 24), (2, 3), (5, 5)]:
            with pytest.raises(ValueError):
                d.structure(n, m)

    def test_missing_structure_map_is_refused_at_construction(self):
        d = dual_system(regular_module(S12))
        missing = re.escape("missing structure map for covering pair (1, 2)")
        with pytest.raises(ValueError, match=missing):
            InverseSystem(S12, d.dims, {})
        maps = dict(d.maps)
        del maps[(4, 12)]
        with pytest.raises(ValueError, match=re.escape("pair (4, 12)")):
            InverseSystem(S12, d.dims, maps)

    def test_structure_map_off_the_covering_pairs_is_refused(self):
        d = dual_system(regular_module(S12))
        for pair in [(1, 5), (1, 4), (12, 24)]:
            maps = {**d.maps, pair: QMatrix.zeros(1, 1)}
            with pytest.raises(ValueError, match=re.escape(f"structure map {pair} is not")):
                InverseSystem(S12, d.dims, maps)


def _full_table_violations(x):
    return ([v for n in x.support for v in all_pairs_validate_actions(x, n)]
            + all_unit_validate_squares(x))


def _battery():
    s30 = support_of_divisors(30)
    return [regular_module(S12), regular_module(S60), tau_ru_module(S60),
            random_module(S12, 3), random_module(s30, 11),
            scramble(regular_module(S12), 1), scramble(tau_ru_module(s30), 2),
            direct_sum([regular_module(S12), random_module(S12, 4)]),
            direct_sum([free_module(6, S12), scramble(semifree_module(2, S12), 3)])]


def _with_action(x, n, l, mat):
    actions = {m: {u: x.action(m, u) for u in units(m)} for m in x.support}
    actions[n][l] = mat
    res = {pair: x.restriction_step(*pair) for pair in x.support.covering_pairs()}
    return OutCycModule(x.support, dict(x.dims), actions, res, name=x.name)


class TestGeneratorChecksAgainstFullTable:
    """The generator-based checks against the all-units tables of oracles.py."""

    def test_valid_modules_pass_both(self):
        for x in _battery():
            assert validate(x) == [], x.name
            assert _full_table_violations(x) == [], x.name

    def test_corrupted_non_generator_unit_is_rejected(self):
        # 11 = 5 * 7 is not among the generators (5, 7) of units(12); a check
        # of g * g alone, or of the generators alone, would miss it
        assert 11 not in units(12).generators()
        for x in _battery():
            if 12 not in x.support or x.dim(12) == 0:
                continue
            bad = _with_action(x, 12, 11, x.action(12, 11).scale(2))
            found = validate(bad)
            assert "action not multiplicative at level 12: 5 * 7" in found, x.name
            assert _full_table_violations(bad), x.name

    def test_every_corrupted_unit_is_rejected(self):
        x = regular_module(S60)
        for l in units(60):
            if l == 1:
                continue
            bad = _with_action(x, 60, l, x.action(60, units(60).mul(l, l)))
            assert validate(bad) != [], l
            assert _full_table_violations(bad) != [], l

    def test_morphisms_agree_with_full_table(self):
        reg = regular_module(S12)
        for x in [regular_module(S12), tau_ru_module(S12), random_module(S12, 6),
                  scramble(random_module(S12, 7), 4),
                  direct_sum([tau_ru_module(S12), random_module(S12, 8)])]:
            for f in hom_direct(x, reg).basis + hom_via_limit(x).basis:
                assert f.validate() == [] and all_unit_morphism_violations(f) == [], x.name

    def test_natural_but_not_equivariant_morphism_is_rejected(self):
        # Zero below level 12, and v w^T at level 12: w is the sign character
        # (1, -1, -1, 1) on units(12) = (1, 5, 7, 11), which kills the images
        # of the restrictions into level 12, so f is natural.  v = e_1 - e_5
        # is negated by translation by 5, like w, so f commutes with the
        # action of 5 but not with that of 7.
        reg = regular_module(S12)
        mats = {n: QMatrix.zeros(reg.dim(n), reg.dim(n)) for n in S12}
        v, w = [1, -1, 0, 0], [1, -1, -1, 1]
        mats[12] = QMatrix(4, 4, [a * b for a in v for b in w])
        f = ModuleMorphism(reg, reg, mats)
        assert sorted(units(12).generators()) == [5, 7]
        assert f.validate() == ["equivariance fails at level 12, unit 7"]
        assert all_unit_morphism_violations(f) == [
            "equivariance fails at level 12, unit 7",
            "equivariance fails at level 12, unit 11"]


def _tree_edges_only(x, n):
    """``validate_actions`` without its relations: the products along the
    tree edges alone, a variant the commutator control below must beat."""
    return [f"action not multiplicative at level {n}: {s} * {h}"
            for u, s, h in units(n).tree().edges
            if h != 1 and x.action(n, s) @ x.action(n, h) != x.action(n, u)]


def _noncommuting_level_12():
    # units(12) = {1, 5, 7, 11} has the generators 5 and 7, both of order
    # 2; two reflections P, Q with P^2 = Q^2 = I and PQ != QP at level 12,
    # zero elsewhere, stored at 1 and the generators only
    p = QMatrix.from_rows([[1, 0], [0, -1]])
    q = QMatrix.from_rows([[0, 1], [1, 0]])
    assert p @ p == q @ q == QMatrix.identity(2) and p @ q != q @ p
    dims = {n: 2 if n == 12 else 0 for n in S12}
    actions = {n: dict.fromkeys((1, *units(n).generators()), QMatrix.zeros(0, 0)) for n in S12}
    actions[12] = {1: QMatrix.identity(2), 5: p, 7: q}
    res = {(a, b): QMatrix.zeros(dims[b], dims[a]) for a, b in S12.covering_pairs()}
    return OutCycModule(S12, dims, actions, res, name="noncommuting")


class TestTreeChecksAgainstGeneratorLoops:
    """Multiplicativity along the Cayley tree and its relations, and the
    Hom reconstruction along the tree, against the generator-by-unit loops
    of oracles.py that they replaced."""

    def test_battery_matches(self):
        for x in _battery():
            for n in x.support:
                assert validate_actions(x, n) == generator_validate_actions(x, n), (x.name, n)
            assert ([f.mats for f in hom_via_limit(x).basis]
                    == [f.mats for f in every_inverse_hom_via_limit(x).basis]), x.name

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(1, 60), min_size=1, max_size=3),
           seed=st.integers(0, 10 ** 6))
    def test_matches_on_divisor_closures(self, seeds, seed):
        x = random_module(divisor_closure(seeds), seed)
        for n in x.support:
            assert validate_actions(x, n) == generator_validate_actions(x, n), n
        assert ([f.mats for f in hom_via_limit(x).basis]
                == [f.mats for f in every_inverse_hom_via_limit(x).basis])

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.lists(st.integers(1, 60), min_size=1, max_size=3),
           seed=st.integers(0, 10 ** 6), data=st.data())
    def test_corrupted_unit_fails_both(self, seeds, seed, data):
        x = random_module(divisor_closure(seeds), seed)
        n = data.draw(st.sampled_from([m for m in x.support if x.dim(m) and len(units(m)) > 1]
                                      or [None]))
        if n is None:
            return
        l = data.draw(st.sampled_from(units(n).elements[1:]))
        bad = _with_action(x, n, l, x.action(n, l).scale(2))
        assert validate_actions(bad, n) != [] and generator_validate_actions(bad, n) != []

    def test_hom_via_limit_leaves_unit_tables_alone(self):
        x = random_module(S60, 5)
        assert hom_via_limit(x).basis
        for n in S60:
            assert _stored_units(x, n) == _generators_and_one(n), n

    def test_only_a_commutator_fails(self):
        # completed along the tree, A(11) is the product of P and Q in the
        # order of its tree edge, so every tree edge and both power
        # relations hold; only the commutator of the two generators fails
        x = _noncommuting_level_12()
        a, b = units(12).generators()
        assert _tree_edges_only(x, 12) == []
        assert validate(x) == [f"action not multiplicative at level 12: {a} * {b}"]
        assert generator_validate_actions(x, 12) != []

    def test_products_per_level(self, monkeypatch):
        # phi(n) - 1 + r(r-1)/2 products per level over divisors(90), where
        # the generator loop makes r phi(n)
        x = regular_module(support_of_divisors(90))
        count = 0
        matmul = QMatrix.__matmul__

        def counting(a, b):
            nonlocal count
            count += 1
            return matmul(a, b)

        def counted(check):
            def run(x, n):
                with monkeypatch.context() as m:
                    m.setattr(QMatrix, "__matmul__", counting)
                    return check(x, n)
            return run

        monkeypatch.setattr(modules_mod, "validate_actions", counted(validate_actions))
        assert validate(x) == []
        assert count == 82
        count = 0
        for n in x.support:
            assert counted(generator_validate_actions)(x, n) == []
        assert count == 152


def _assert_same_structure(a, b):
    assert a.support == b.support and a.dims == b.dims, (a.name, b.name)
    for n in a.support:
        for l in units(n):
            assert a.action(n, l) == b.action(n, l), (a.name, n, l)
    for pair in a.support.covering_pairs():
        assert a.restriction_step(*pair) == b.restriction_step(*pair), (a.name, pair)


def _mixed_parts(support):
    # a summand storing every unit, next to a conjugated one and two with
    # shared trivial actions
    return [regular_module(support), scramble(free_module(2, support), 7),
            semifree_module(2, support), atomic_module(1, 2, support)]


class TestFactorOnGeneratorsAgainstPerUnitSolves:
    """Induced actions solved at the generators and completed by products,
    and block-diagonal sums built once per tuple of summand matrices,
    against the per-unit routes of oracles.py."""

    @staticmethod
    def _check(f):
        got, want = morphism_factor(f), per_unit_morphism_factor(f)
        for a, b in [(got.kernel, want.kernel), (got.image, want.image),
                     (got.cokernel, want.cokernel)]:
            _assert_same_structure(a, b)
        for name in ["kernel_inclusion", "image_inclusion", "source_to_image",
                     "cokernel_projection"]:
            assert getattr(got, name).mats == getattr(want, name).mats, name
        # the cokernel alone, as the resolution's witnesses compute it
        proj = cokernel_projection(f)
        assert proj.source is f.target
        for cok in (got.cokernel, want.cokernel):
            _assert_same_structure(proj.target, cok)
        assert proj.mats == got.cokernel_projection.mats

    @pytest.mark.parametrize("primes, degree, top", [([2, 3, 5], 3, 30), ([3, 5, 7], 2, 105)])
    def test_resolution_differentials(self, primes, degree, top):
        for d in build_complex(primes, degree, support_of_divisors(top)).diffs:
            self._check(d)

    def test_identity_zero_and_fold(self):
        reg = regular_module(S12)
        self._check(identity_morphism(reg))
        self._check(zero_morphism(reg, atomic_module(4, 2, S12)))
        self._check(_fold(S12))

    @pytest.mark.parametrize("top", [12, 36])
    def test_hom_basis_morphisms(self, top):
        support = support_of_divisors(top)
        reg = regular_module(support)
        for seed in (3, 8):
            basis = hom_direct(random_module(support, seed), reg).basis
            assert basis
            for f in basis:
                self._check(f)

    def test_sum_with_regular_and_conjugated_summands(self):
        parts = _mixed_parts(S12)
        s = direct_sum(parts)
        _assert_same_structure(s, per_unit_direct_sum(parts))
        assert validate(s) == []
        reg = regular_module(S12)
        for f in hom_direct(s, reg).basis + [identity_morphism(s)]:
            self._check(f)

    def test_trivial_actions_share_one_matrix_per_level(self):
        for x in [semifree_module(1, S12), atomic_module(4, 2, S12), zero_module(S12),
                  direct_sum([semifree_module(2, S12), atomic_module(4, 2, S12)])]:
            for n in S12:
                mats = {id(x.action(n, l)) for l in units(n)}
                assert len(mats) == 1, (x.name, n)


class TestSharedMatricesAreNeverMutated:
    """Units share matrix objects, so an in-place write anywhere would
    corrupt every unit of a level at once."""

    def test_no_computation_writes_into_its_inputs(self):
        s = support_of_divisors(12)
        semi, atom = semifree_module(2, s), atomic_module(4, 2, s)
        inputs = [semi, atom, direct_sum(_mixed_parts(s))]

        def snapshot():
            return [([flat_entries(x.action(n, l)) for n in s for l in units(n)],
                     [flat_entries(x.restriction_step(*p)) for p in s.covering_pairs()])
                    for x in inputs]

        before = snapshot()
        reg = regular_module(s)
        for x in inputs:
            morphism_factor(identity_morphism(x))
            for f in hom_direct(x, reg).basis:
                morphism_factor(f)
            hom_direct(reg, x)
            hom_via_limit(x)
            ext_via_resolution(x, x, 2)
            lim_derived(dual_system(x), 2)
            module_to_json(x)
        assert snapshot() == before


def _stored_units(x, n):
    return set(x._actions[n])


def _generators_and_one(n):
    return {1, *units(n).generators()}


class TestActionsStoredOnGenerators:
    """Derived modules store the actions of 1 and the generators only;
    ``OutCycModule.action`` completes a level when another unit is asked
    for.  Every completed table against the per-unit routes of oracles.py."""

    def test_factor_pieces_store_generators_until_asked(self):
        f = _fold(S60)
        fact = morphism_factor(f)
        pieces = [fact.kernel, fact.image, fact.cokernel]
        for piece in pieces:
            for n in S60:
                assert _stored_units(piece, n) == _generators_and_one(n), (piece.name, n)
        assert 11 not in units(12).generators()
        kernel = fact.kernel
        kernel.action(12, 11)
        assert _stored_units(kernel, 12) == set(units(12))
        assert _stored_units(kernel, 60) == _generators_and_one(60)
        assert _stored_units(fact.image, 12) == _generators_and_one(12)
        want = per_unit_morphism_factor(f)
        for a, b in [(fact.kernel, want.kernel), (fact.image, want.image),
                     (fact.cokernel, want.cokernel)]:
            _assert_same_structure(a, b)
        cok = cokernel_projection(f).target
        for n in S60:
            assert _stored_units(cok, n) == _generators_and_one(n), n
        _assert_same_structure(cok, want.cokernel)

    def test_criterion_battery_factors(self):
        from test_acceptance import battery
        reg = regular_module(S12)
        for tag, x in battery(S12):
            for f in hom_direct(x, reg).basis + [identity_morphism(x)]:
                TestFactorOnGeneratorsAgainstPerUnitSolves._check(f)

    def test_direct_sums(self):
        fact = morphism_factor(_fold(S12))
        for parts in [[regular_module(S12), random_module(S12, 4)],
                      [tau_ru_module(S12), semifree_module(3, S12), zero_module(S12)],
                      [fact.kernel, scramble(fact.image, 2), atomic_module(6, 1, S12)],
                      [direct_sum(_mixed_parts(S12)), random_module(S12, 9)]]:
            s = direct_sum(parts)
            for n in S12:
                assert _stored_units(s, n) == _generators_and_one(n), (s.name, n)
            _assert_same_structure(s, per_unit_direct_sum(parts))

    def test_conjugations(self):
        fact = morphism_factor(_fold(S60))
        for i, x in enumerate([regular_module(S60), tau_ru_module(S60), random_module(S60, 5),
                               fact.kernel, direct_sum([fact.image, free_module(4, S60)])]):
            t = scramble_transforms(x, i)
            _assert_same_structure(conjugate_module(x, t), per_unit_conjugate_module(x, t))

    def test_random_modules(self, monkeypatch):
        s30 = support_of_divisors(30)
        got = [random_module(s, seed) for s in (S12, s30) for seed in range(8)]
        monkeypatch.setattr(modules_mod, "conjugate_module", per_unit_conjugate_module)
        monkeypatch.setattr(modules_mod, "direct_sum", per_unit_direct_sum)
        want = [random_module(s, seed) for s in (S12, s30) for seed in range(8)]
        assert _stored_units(want[0], 12) == set(units(12))
        for a, b in zip(got, want):
            _assert_same_structure(a, b)

    def test_trivial_actions(self):
        for x in [semifree_module(1, S60), semifree_module(4, S60), atomic_module(12, 3, S60),
                  atomic_module(1, 0, S60), zero_module(S60)]:
            for n in S60:
                assert _stored_units(x, n) == _generators_and_one(n), (x.name, n)
                one = QMatrix.identity(x.dim(n))
                assert all(x.action(n, l) == one for l in units(n)), (x.name, n)

    def test_power_relation_bounds_the_generator_order(self):
        # units(7) is cyclic of order 6 on the one generator 3.  A quarter
        # turn has order 4, which does not divide 6: every tree edge holds
        # for the table completed from it, and only the power relation
        # A(3) A(3^5) = A(1), that is A(3) A(5) = I, fails.  A rotation of
        # order 6 stored at 3 passes.
        assert units(7).generators() == (3,)
        s7 = SupportSet([1, 7])

        def level_7(a3):
            return OutCycModule(s7, {1: 0, 7: 2}, {1: {1: QMatrix.zeros(0, 0)},
                                                  7: {1: QMatrix.identity(2), 3: a3}},
                                {(1, 7): QMatrix.zeros(2, 0)})

        quarter = QMatrix.from_rows([[0, -1], [1, 0]])
        sixth = QMatrix.from_rows([[1, -1], [1, 0]])
        assert quarter @ quarter @ quarter @ quarter == QMatrix.identity(2)
        bad = level_7(quarter)
        assert validate(bad) == ["action not multiplicative at level 7: 3 * 5"]
        assert all_pairs_validate_actions(bad, 7) != []
        good = level_7(sixth)
        assert validate(good) == [] and all_pairs_validate_actions(good, 7) == []
