import re
from fractions import Fraction
from math import prod

import pytest

from cycrep.cyclic_site import SupportSet, support_of_divisors, units
from cycrep.linalg import QMatrix, rank
from cycrep.modules import morphism_factor, validate
from cycrep.hom_ext import hom_direct
from cycrep.resolution import (
    build_complex,
    contraction,
    nontrivial_ext_witness,
    verify_resolution,
)

from oracles import insertion_contraction

S6 = support_of_divisors(6)
S30 = support_of_divisors(30)


class TestBuildComplex:
    def test_tuple_bases(self):
        cx = build_complex([2, 3, 5], 3, S30)
        assert cx.tuples[0] == [()]
        assert cx.tuples[1] == [(2,), (3,), (5,)]
        assert cx.tuples[3] == [(2, 3, 5)]

    def test_differential_drops_primes_with_alternating_signs(self):
        cx = build_complex([2, 3], 2, S6)
        # the generator at the pair (2,3): dropping 2 gives -, dropping 3 gives +
        col = cx.diff_at_level(2, 6)
        tgt = cx.level_tuples(1, 6)
        assert tgt == [(2,), (3,)]
        assert col.col(0) == [Fraction(1), Fraction(-1)]

    def test_degree_one_hits_the_augmentation_generator(self):
        cx = build_complex([2, 3], 2, S6)
        for m in [2, 3]:
            assert cx.diff_at_level(1, m) == QMatrix.from_rows([[-1]])

    def test_modules_and_morphisms_validate(self):
        cx = build_complex([2, 3, 5], 3, S30)
        for p in cx.modules:
            assert validate(p) == []
        for d in cx.diffs:
            assert d.validate() == []
        assert cx.augmentation.validate() == []

    def test_d_squared_zero(self):
        cx = build_complex([2, 3, 5], 3, S30)
        for k in range(2, 4):
            for m in S30:
                assert (cx.diff_at_level(k - 1, m) @ cx.diff_at_level(k, m)).is_zero()

    def test_support_too_small(self):
        with pytest.raises(ValueError):
            build_complex([2, 3], 2, SupportSet([1, 2, 3]))

    @pytest.mark.parametrize("primes, problem", [
        ([], "no ambient primes"), ([1], "[1]"), ([2, 6, 3, 0], "[6, 0]"), ([-2], "[-2]"),
    ])
    def test_ambient_primes_must_be_prime(self, primes, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            build_complex(primes, 1, S30)

    def test_level_restriction_of_differential(self):
        # the differential acts within each level: a basis tuple only appears
        # where its product divides the level
        cx = build_complex([2, 3], 2, S6)
        assert cx.level_tuples(2, 2) == []
        assert cx.level_tuples(1, 3) == [(3,)]
        assert cx.modules[2].dim(3) == 0

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_differential_degree_out_of_range_raises(self, k):
        # d_k exists for 1 <= k <= max_degree only; diffs[k - 1] would wrap
        # k = 0 and k = -1 round to the top differentials
        cx = build_complex([2, 3, 5], 3, S30)
        with pytest.raises(ValueError, match=f"d_{k} is not built"):
            cx.diff(k)
        with pytest.raises(ValueError, match=f"d_{k} is not built"):
            cx.diff_at_level(k, 30)
        assert cx.diff(3) is cx.diffs[2]
        assert cx.diff_at_level(1, 30) is cx.diffs[0].mats[30]


class TestContraction:
    def test_rejects_level_one(self):
        cx = build_complex([2, 3], 2, S6)
        with pytest.raises(ValueError):
            contraction(cx, 1)

    def test_single_prime_level(self):
        cx = build_complex([2, 3], 2, S6)
        h = contraction(cx, 2)
        # one prime factor: h0 maps the empty tuple to minus the 1-tuple and
        # d1 h0 is the identity on the 1-dimensional degree 0
        assert h[0] == QMatrix.from_rows([[-1]])
        assert cx.diff_at_level(1, 2) @ h[0] == QMatrix.identity(1)

    def test_two_prime_level_weights(self):
        cx = build_complex([2, 3], 2, S6)
        h = contraction(cx, 6)
        assert h[0] == QMatrix.from_rows([[Fraction(-1, 2)], [Fraction(-1, 2)]])

    def test_homotopy_identity_all_degrees(self):
        cx = build_complex([2, 3, 5], 3, S30)
        for m in [2, 3, 5, 6, 10, 15, 30]:
            hs = contraction(cx, m)
            for n, h in enumerate(hs):
                ident = QMatrix.identity(cx.modules[n].dim(m))
                total = QMatrix.zeros(ident.rows, ident.cols)
                if n + 1 <= cx.max_degree:
                    total = total + cx.diff_at_level(n + 1, m) @ h
                if n >= 1:
                    total = total + hs[n - 1] @ cx.diff_at_level(n, m)
                assert total == ident, (m, n)

    def test_top_degree_truncation(self):
        cx = build_complex([2, 3, 5], 3, S30)
        hs = contraction(cx, 30)
        # no 4-element subsets of three primes: the top map vanishes and the
        # identity is carried by h2 d3 alone
        assert hs[3].is_zero()
        assert hs[2] @ cx.diff_at_level(3, 30) == QMatrix.identity(1)

    @pytest.mark.parametrize("primes", [[2, 3], [2, 3, 5], [3, 5, 7, 11], [2, 3, 5, 7, 11]])
    def test_transposed_differential_matches_the_insertion_loop(self, primes):
        # every level with an ambient prime factor, at every degree up to one
        # past the number of primes: both top-degree branches (the zero map
        # and the unbuilt module) run
        support = support_of_divisors(prod(primes))
        for max_degree in range(1, len(primes) + 2):
            cx = build_complex(primes, max_degree, support)
            for m in support:
                if m > 1:
                    assert contraction(cx, m) == insertion_contraction(cx, m), (max_degree, m)

    def test_opposite_insertion_parity_breaks_the_identity(self):
        # flipping to 0-based insertion signs negates h, turning dh + hd into
        # minus the identity; this pins the chosen convention as the only one
        cx = build_complex([2, 3], 2, S6)
        h = [m.scale(-1) for m in contraction(cx, 6)]
        n = 1
        ident = QMatrix.identity(cx.modules[n].dim(6))
        total = cx.diff_at_level(n + 1, 6) @ h[n] + h[n - 1] @ cx.diff_at_level(n, 6)
        assert total == ident.scale(-1)


class TestVerifyReport:
    def test_divisors_six(self):
        rep = verify_resolution(build_complex([2, 3], 2, S6))
        assert rep.ok
        assert rep.convention == "1-based insertion position"

    def test_divisors_thirty(self):
        rep = verify_resolution(build_complex([2, 3, 5], 3, S30))
        assert rep.ok

    def test_level_without_an_ambient_prime_is_a_failed_check(self):
        # level 5 has no prime factor among 2, 3: no contraction exists
        # there, and the augmented complex is not exact at degree 0
        rep = verify_resolution(build_complex([2, 3], 2, S30))
        assert not rep.ok
        failed = [c.name for c in rep.failed()]
        assert "contraction at level 5" in failed
        assert "exact at degree 0 (image of d1 = kernel of augmentation)" in failed
        assert not any("level 6" in name for name in failed)

    @pytest.mark.parametrize("max_degree", [0, -1])
    def test_degree_guard(self, max_degree):
        with pytest.raises(ValueError, match="degree at least 1"):
            verify_resolution(build_complex([2, 3], max_degree, S6))

    def test_level_one_exactness_is_the_augmentation(self):
        cx = build_complex([2, 3], 2, S6)
        assert cx.modules[0].dim(1) == 1
        assert rank(cx.augmentation.mats[1]) == 1
        assert cx.modules[1].dim(1) == 0


class TestExtWitness:
    def test_degree_one_over_six(self):
        rep, xi, coker = nontrivial_ext_witness(build_complex([2, 3], 2, S6), 1)
        assert rep.hom_below_dim == 0
        assert not rep.cocycle_is_zero
        assert rep.composes_to_zero
        assert rep.nontrivial
        # the cokernel vanishes at level 1 where the degree-0 term is generated
        assert coker.dim(1) == 0

    def test_degree_two_over_thirty(self):
        rep, xi, coker = nontrivial_ext_witness(build_complex([2, 3, 5], 3, S30), 2)
        assert rep.nontrivial

    def test_cocycle_composes_to_zero_by_construction(self):
        # the projection onto the cokernel kills the image of the next
        # differential, making it a cocycle
        cx = build_complex([2, 3], 2, S6)
        rep, xi, coker = nontrivial_ext_witness(cx, 1)
        assert xi.compose(cx.diff(2)).is_zero()

    def test_hom_vanishing_is_a_real_computation(self):
        # the degree-0 term maps nowhere into the cokernel because the
        # cokernel vanishes at the generating level
        cx = build_complex([2, 3], 2, S6)
        rep, xi, coker = nontrivial_ext_witness(cx, 1)
        assert hom_direct(cx.modules[0], coker).dimension == 0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            nontrivial_ext_witness(build_complex([2, 3], 2, S6), 0)

    def test_top_degree_is_the_prime_count(self):
        # two distinct primes: the complex ends in degree 2, which still
        # carries a witness, and nothing lies beyond it
        assert nontrivial_ext_witness(build_complex([2, 3, 3], 3, S6), 2)[0].nontrivial
        with pytest.raises(ValueError, match="distinct ambient primes, 2; got 3"):
            nontrivial_ext_witness(build_complex([2, 3], 4, S6), 3)


def _same_module(a, b):
    assert a.support == b.support and a.dims == b.dims
    for n in a.support:
        for l in units(n):
            assert a.action(n, l) == b.action(n, l), (n, l)
    for pair in a.support.covering_pairs():
        assert a.restriction_step(*pair) == b.restriction_step(*pair), pair


class TestWitnessesShareOneComplex:
    """Every witness read from one complex built to degree D equals the
    witness from a fresh complex built to degree n + 1, the smallest that
    carries d_{n+1}, and its cokernel is morphism_factor's."""

    @pytest.mark.parametrize("top_degree", [3, 5])
    def test_against_fresh_complexes(self, top_degree):
        primes = [2, 3, 5]
        shared = build_complex(primes, top_degree, S30)
        for n in range(1, min(top_degree - 1, len(primes)) + 1):
            fresh = build_complex(primes, n + 1, S30)
            rep, xi, coker = nontrivial_ext_witness(shared, n)
            rep0, xi0, coker0 = nontrivial_ext_witness(fresh, n)
            assert rep == rep0 and rep.nontrivial, n
            assert xi.mats == xi0.mats, n
            _same_module(coker, coker0)
            fact = morphism_factor(fresh.diff(n + 1))
            assert xi.mats == fact.cokernel_projection.mats, n
            _same_module(coker, fact.cokernel)
            assert xi.target is coker and xi.source is shared.modules[n]

    def test_guards(self):
        cx = build_complex([2, 3, 5], 3, S30)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"distinct ambient primes, 3; got {n}"):
                nontrivial_ext_witness(cx, n)
        # d3 is the top differential of a degree-3 complex: the witness in
        # degree 2 reads it, the one in degree 3 would need d4
        assert nontrivial_ext_witness(cx, 2)[0].nontrivial
        with pytest.raises(ValueError, match="degree 3 reads d4, but the complex is "
                                             "built to degree 3"):
            nontrivial_ext_witness(cx, 3)
        with pytest.raises(ValueError, match="distinct ambient primes, 3; got 4"):
            nontrivial_ext_witness(build_complex([2, 3, 5], 5, S30), 4)
        with pytest.raises(ValueError, match="degree 1 reads d2, but the complex is "
                                             "built to degree 1"):
            nontrivial_ext_witness(build_complex([2, 3], 1, S6), 1)

    @pytest.mark.parametrize("max_degree", [0, -1, -5])
    def test_degree_is_checked_before_the_primes(self, max_degree):
        # a negative degree used to reach itertools.combinations first
        with pytest.raises(ValueError, match="the resolution must be built to degree "
                                             "at least 1"):
            build_complex([], max_degree, S6)
