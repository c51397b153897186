import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cycrep.cyclic_site import divisors, support_of_divisors, totient, units
from cycrep.linalg import QMatrix, kernel_basis, rank, solve
from cycrep.modules import restriction_matrix, validate
from cycrep.rep_ring import (
    MonomialReducer,
    RUElement,
    crt_iso,
    mul,
    restrict_proj,
    restrict_proj_matrix,
    restrict_sub,
    restrict_sub_matrix,
    tau_level,
    tau_ru_module,
    transfer,
    transfer_ideal,
    transfer_matrix,
    unit_action,
    unit_action_matrix,
)

from oracles import (ReferenceMonomialReducer, char_value, conjugated_tau_matrices,
                     dense_tau_level, embed_roots, ideal_generators_sparse,
                     monomial_to_eliminated, mul_sparse, roots_equal,
                     induced_char_poly_check, stored_values)


def random_element(n, rng):
    return RUElement(n, [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                         for _ in range(n)])


class TestRingStructure:
    def test_x_times_x_power_n_minus_one(self):
        for n in [2, 3, 5, 8]:
            x = RUElement.monomial(n, 1)
            xn1 = RUElement.monomial(n, n - 1)
            assert mul(x, xn1) == RUElement.one(n)

    def test_unit_element(self):
        rng = random.Random(7)
        for n in [1, 4, 6]:
            a = random_element(n, rng)
            assert mul(RUElement.one(n), a) == a

    def test_binomial_square(self):
        a = RUElement(2, [1, 1])
        assert mul(a, a) == RUElement(2, [2, 2])

    def test_level_mismatch_raises(self):
        with pytest.raises(ValueError):
            mul(RUElement.one(2), RUElement.one(3))


class TestInflation:
    def test_examples(self):
        assert restrict_proj(4, 2, RUElement.x(2)) == RUElement.monomial(4, 2)
        assert restrict_proj(6, 3, RUElement.x(3)) == RUElement.monomial(6, 2)
        a = RUElement(6, [1, 2, 3, 4, 5, 6])
        assert restrict_proj(6, 6, a) == a

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            restrict_proj(6, 4, RUElement.one(4))

    def test_character_pullback_oracle(self):
        # the inflated virtual character evaluated at g must equal the
        # original character at the image of g, symbolically in roots of unity
        rng = random.Random(3)
        for m in range(2, 25):
            for n in divisors(m):
                a = random_element(n, rng)
                infl = restrict_proj(m, n, a)
                for t in range(m):
                    lhs = char_value(infl, t)
                    rhs = embed_roots(char_value(a, t % n), n, m)
                    assert roots_equal(lhs, rhs, m), (m, n, t)

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        for (m, n) in [(4, 2), (12, 6), (9, 3), (10, 5)]:
            a, b = random_element(n, rng), random_element(n, rng)
            assert restrict_proj(m, n, mul(a, b)) == mul(restrict_proj(m, n, a),
                                                         restrict_proj(m, n, b))


class TestSubgroupRestriction:
    def test_examples(self):
        assert restrict_sub(4, 2, RUElement.x(4)) == RUElement.x(2)
        assert restrict_sub(6, 3, RUElement.monomial(6, 2)) == RUElement.monomial(3, 2)
        a = RUElement(6, [1, 0, 2, 0, 3, 0])
        assert restrict_sub(6, 6, a) == a

    def test_character_restriction_oracle(self):
        # restricting to the subgroup generated by g^(n/d) matches evaluating
        # the original character on those powers
        rng = random.Random(5)
        for n in range(2, 25):
            for d in divisors(n):
                a = random_element(n, rng)
                res = restrict_sub(n, d, a)
                for t in range(d):
                    lhs = embed_roots(char_value(res, t), d, n)
                    rhs = char_value(a, (n // d) * t)
                    assert roots_equal(lhs, rhs, n), (n, d, t)


class TestTransfer:
    def test_examples(self):
        assert transfer(1, 2, RUElement.one(1)) == RUElement(2, [1, 1])
        assert transfer(2, 4, RUElement.x(2)) == RUElement(4, [0, 1, 0, 1])
        assert transfer(2, 6, RUElement.one(2)) == RUElement(6, [1, 0, 1, 0, 1, 0])

    def test_transpose_of_restriction(self):
        for n in range(1, 61):
            for d in divisors(n):
                assert transfer_matrix(d, n) == restrict_sub_matrix(n, d).transpose()

    def test_induced_module_characteristic_polynomial(self):
        # a from-first-principles check on small cases: the generator acts on
        # the induced module by a companion matrix whose eigenvalues are
        # exactly the claimed character constituents
        for (d, n) in [(1, 2), (2, 4), (1, 3), (3, 6), (2, 6), (4, 8), (3, 9)]:
            for j in range(d):
                assert induced_char_poly_check(d, n, j), (d, n, j)

    def test_projection_formula(self):
        # transfers soak up restricted factors, making their span an ideal
        rng = random.Random(17)
        for n in range(2, 25):
            for d in divisors(n):
                a = random_element(n, rng)
                b = random_element(d, rng)
                lhs = transfer(d, n, mul(restrict_sub(n, d, a), b))
                rhs = mul(a, transfer(d, n, b))
                assert lhs == rhs, (n, d)


class TestUnitAction:
    def test_identity_and_substitution(self):
        a = RUElement(4, [1, 2, 3, 4])
        assert unit_action(4, 1, a) == a
        assert unit_action(4, 3, RUElement.x(4)) == RUElement.monomial(4, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40))
    def test_action_is_multiplicative(self, n):
        un = units(n)
        rng = random.Random(n)
        a = random_element(n, rng)
        for l in list(un)[:5]:
            for lp in list(un)[:5]:
                assert unit_action(n, l, unit_action(n, lp, a)) == \
                    unit_action(n, un.mul(l, lp), a)

    def test_ring_automorphism(self):
        rng = random.Random(23)
        for n in [4, 6, 12]:
            for l in units(n):
                a, b = random_element(n, rng), random_element(n, rng)
                assert unit_action(n, l, mul(a, b)) == \
                    mul(unit_action(n, l, a), unit_action(n, l, b))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            unit_action(4, 2, RUElement.one(4))


class TestTransferIdeal:
    def test_level_one_is_zero(self):
        assert transfer_ideal(1).cols == 0

    def test_prime_level_is_norm_line(self):
        for p in [2, 3, 5, 7]:
            ideal = transfer_ideal(p)
            assert rank(ideal) == 1
            allones = QMatrix.column([1] * p)
            assert solve(ideal, allones) is not None

    def test_prime_power_equals_principal_ideal(self):
        # span{all proper transfers} == span{X^i * norm polynomial}
        for p, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
            n = p ** k
            ideal = transfer_ideal(n)
            norm = [0] * n
            for i in range(p):
                norm[i * p ** (k - 1)] = 1
            shifts = []
            for s in range(n):
                shifts.append([norm[(i - s) % n] for i in range(n)])
            principal = QMatrix.from_columns(shifts, rows=n)
            assert rank(ideal) == rank(principal) == rank(
                QMatrix.from_columns([ideal.col(j) for j in range(ideal.cols)]
                                     + shifts, rows=n))

    def test_closed_under_monomial_multiplication(self):
        for n in [4, 6, 12]:
            ideal = transfer_ideal(n)
            for j in range(ideal.cols):
                col = ideal.col(j)
                shifted = [col[(i - 1) % n] for i in range(n)]
                assert solve(ideal, QMatrix.column(shifted)) is not None

    def test_stable_under_units_and_inflation(self):
        for n, m in [(2, 4), (3, 6), (4, 12), (6, 12)]:
            ideal_n, ideal_m = transfer_ideal(n), transfer_ideal(m)
            infl = restrict_proj_matrix(m, n)
            for j in range(ideal_n.cols):
                assert solve(ideal_m, infl @ ideal_n.column_vector(j)) is not None
        for n in [4, 6, 12]:
            ideal = transfer_ideal(n)
            for l in units(n):
                act = unit_action_matrix(n, l)
                for j in range(ideal.cols):
                    assert solve(ideal, act @ ideal.column_vector(j)) is not None


class TestTauQuotient:
    def test_dimensions(self):
        for n in divisors(2520):
            assert tau_level(n).dim == totient(n)

    def test_projection_section_identity(self):
        for n in [1, 4, 6, 12]:
            lv = tau_level(n)
            assert lv.projection @ lv.section == QMatrix.identity(lv.dim)

    def test_kernel_is_transfer_ideal(self):
        for n in [2, 4, 6, 9, 12]:
            lv = tau_level(n)
            ideal = transfer_ideal(n)
            assert (lv.projection @ ideal).is_zero()
            ker = kernel_basis(lv.projection)
            for j in range(ker.cols):
                assert solve(ideal, ker.column_vector(j)) is not None

    def test_module_dims_and_validity(self):
        s = support_of_divisors(12)
        mod = tau_ru_module(s)
        assert mod.dims == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
        assert validate(mod) == []

    def test_level_one_trivial(self):
        s = support_of_divisors(2)
        mod = tau_ru_module(s)
        assert mod.dim(1) == 1 and mod.action(1, 1) == QMatrix.identity(1)

    def test_restrictions_are_unital_ring_maps(self):
        # the module's restrictions are inflation, and inflation is a unital
        # ring map for the reduced multiplication
        mod = tau_ru_module(support_of_divisors(12))
        for n, m in mod.support.covering_pairs():
            red_n, red_m = MonomialReducer(n), MonomialReducer(m)
            res = mod.restriction_step(n, m)
            one = {0: Fraction(1)}
            assert res @ red_n.columns([red_n.reduce_sparse(one)]) == \
                red_m.columns([red_m.reduce_sparse(one)])
            rng = random.Random(n * 100 + m)
            for _ in range(4):
                u, v = (red_n.reduce_sparse({e: Fraction(rng.randint(-3, 3))
                                             for e in red_n.basis}) for _ in range(2))
                for w in (u, v):
                    assert res @ red_n.columns([w]) == \
                        red_m.columns([red_m.inflate_from(red_n, w)])
                lhs = red_m.inflate_from(red_n, mul_sparse(red_n, u, v))
                rhs = mul_sparse(red_m, red_m.inflate_from(red_n, u),
                                 red_m.inflate_from(red_n, v))
                assert lhs == rhs

    def test_coprime_multiplication_is_isomorphism(self):
        # tensor-and-multiply between coprime levels has full rank on quotients
        mod = tau_ru_module(support_of_divisors(12))
        for (a, b) in [(3, 4), (2, 3)]:
            red_a, red_b, red_ab = MonomialReducer(a), MonomialReducer(b), MonomialReducer(a * b)
            ups = {}
            for red in (red_a, red_b):
                up = restriction_matrix(mod, a * b, red.n)
                ups[red.n] = [red_ab.inflate_from(red, {e: Fraction(1)}) for e in red.basis]
                assert red_ab.columns(ups[red.n]) == up
            cols = [mul_sparse(red_ab, u, v) for u in ups[a] for v in ups[b]]
            assert rank(red_ab.columns(cols)) == red_ab.dim

    def test_elimination_matches_dense_oracle(self):
        for n in range(1, 61):
            lv = tau_level(n)
            assert (lv.projection, lv.section, lv.basis_monomials) == dense_tau_level(n), n


class TestPresentationBridge:
    """The module, built from reduced monomials, against the eliminated
    quotient: conjugate through the basis change of every level."""

    @pytest.mark.parametrize("top", [12, 16, 30, 90])
    def test_conjugate_to_the_eliminated_products(self, top):
        support = support_of_divisors(top)
        mod = tau_ru_module(support)
        actions, restrictions = conjugated_tau_matrices(support)
        bridges = {n: monomial_to_eliminated(n) for n in support}
        for n in support:
            assert rank(bridges[n]) == mod.dim(n) == tau_level(n).dim, n
            for l in units(n):
                act = mod.action(n, l)
                assert bridges[n] @ act == actions[n][l] @ bridges[n], (n, l)
                assert all(type(v) is Fraction for v in stored_values(act))
        for (a, b), mat in restrictions.items():
            res = mod.restriction_step(a, b)
            assert bridges[b] @ res == mat @ bridges[a], (a, b)
            assert all(type(v) is Fraction for v in stored_values(res))


class TestCrt:
    def test_trivial_factor(self):
        assert crt_iso(1, 5) == QMatrix.identity(5)

    def test_invertibility(self):
        assert rank(crt_iso(2, 3)) == 6
        assert rank(crt_iso(4, 9)) == 36

    def test_coprimality_guard(self):
        with pytest.raises(ValueError):
            crt_iso(4, 6)

    def test_matches_inflation_products(self):
        n, m = 3, 4
        iso = crt_iso(n, m)
        for i in range(n):
            for j in range(m):
                prod = mul(restrict_proj(n * m, n, RUElement.monomial(n, i)),
                           restrict_proj(n * m, m, RUElement.monomial(m, j)))
                assert iso.col(i * m + j) == list(prod.coeffs)


class TestMonomialReducer:
    def test_prime_power_basis_matches_elimination(self):
        for n in [2, 4, 8, 9, 27, 5, 7, 49]:
            red = MonomialReducer(n)
            assert red.basis == tau_level(n).basis_monomials

    def test_dimension_is_totient(self):
        for n in [1, 6, 12, 30, 60, 360]:
            assert MonomialReducer(n).dim == totient(n)

    def test_kills_exactly_the_ideal(self):
        for n in [4, 6, 12, 30]:
            red = MonomialReducer(n)
            for g in ideal_generators_sparse(red):
                assert red.reduce_sparse(g) == {}
            # reduction is a projection: reducing a basis monomial is identity
            for e in red.basis:
                assert red.reduce_sparse({e: Fraction(1)}) == {e: Fraction(1)}

    def test_agrees_with_elimination_quotient(self):
        # both presentations kill the same subspace, so reducing to zero in
        # one implies lying in the kernel of the other's projection
        for n in [6, 12, 18]:
            red = MonomialReducer(n)
            lv = tau_level(n)
            for e in range(n):
                vec = [Fraction(0)] * n
                vec[e] = Fraction(1)
                reduced = red.reduce_sparse({e: Fraction(1)})
                back = [Fraction(0)] * n
                for b, c in reduced.items():
                    back[b] += c
                diff = QMatrix.column([a - b for a, b in zip(vec, back)])
                assert (lv.projection @ diff).is_zero()


def zeros_dropped_at_end(red, vec, mult):
    """A kernel that sums every term and drops the zero sums afterwards:
    a key that cancels and then returns keeps its first place, where
    ``reduce_sparse`` moves it to the end."""
    out = {}
    for e, c in vec.items():
        for b, s in red.reduce_exponent(e * mult % red.n).items():
            out[b] = out.get(b, 0) + c * s
    return {b: v for b, v in out.items() if v}


class TestAgainstReferenceReducer:
    """The CRT basis and the fused rescale-and-reduce kernel against the
    exponent scan and the build-then-reduce paths of oracles.py."""

    def test_basis(self):
        for n in sorted(set(range(1, 2521)) | set(divisors(5040))):
            assert MonomialReducer(n).basis == ReferenceMonomialReducer(n).basis, n

    def test_a_term_that_cancels_returns_at_the_end(self):
        # at level 6: X^1 -> X^1, X^4 -> -X^1, X^0 -> X^5 + X^1
        red = MonomialReducer(6)
        vec = {1: 1, 4: 1, 0: 1}
        assert list(red.reduce_sparse(vec).items()) == [(5, 1), (1, 1)]
        assert list(zeros_dropped_at_end(red, vec, 1).items()) == [(1, 1), (5, 1)]
        # the same vector as the image of the unit 5
        assert list(red.act_unit(5, {5: 1, 2: 1, 0: 1}).items()) == [(5, 1), (1, 1)]

    @pytest.mark.parametrize("n", [12, 30, 72, 210, 360, 450, 840, 2520])
    def test_kernels_keep_the_reference_key_order(self, n):
        # ambient vectors (any exponent below the level) and reduced ones;
        # on reduced inputs a term can cancel and then return only when two
        # odd primes divide n to a power above 1, as in 450 = 2 * 3^2 * 5^2
        rng = random.Random(n)
        fast, ref = MonomialReducer(n), ReferenceMonomialReducer(n)
        reordered = {"reduce": 0, "act": 0, "inflate": 0}

        def same(got, want, vec, mult, op):
            assert list(got.items()) == list(want.items()), (n, op, vec, mult)
            reordered[op] += list(want.items()) != list(zeros_dropped_at_end(ref, vec, mult).items())

        def ambient(level):
            return {e: rng.randint(-2, 2) for e in rng.sample(range(level), min(level, 40))}

        for _ in range(12):
            amb = ambient(n)
            same(fast.reduce_sparse(amb), ref.reduce_sparse(amb), amb, 1, "reduce")
            for vec in (amb, ref.reduce_sparse(amb)):
                for l in rng.sample(list(units(n)), 3):
                    same(fast.act_unit(l, vec), ref.act_unit(l, vec), vec, l, "act")
            d = rng.choice(divisors(n)[:-1])
            sub, ref_sub = MonomialReducer(d), ReferenceMonomialReducer(d)
            low = ambient(d)
            for vec in (low, ref_sub.reduce_sparse(low)):
                same(fast.inflate_from(sub, vec), ref.inflate_from(ref_sub, vec), vec, n // d,
                     "inflate")
        # the seeded vectors include terms that cancel and then return
        assert all(reordered.values()), reordered
