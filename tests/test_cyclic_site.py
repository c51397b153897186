from array import array
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from cycrep.cyclic_site import (
    SupportSet,
    character_blocks,
    divisor_closure,
    divisors,
    is_prime,
    prime_factors,
    ramanujan_sum,
    reduce_unit,
    support_of_divisors,
    totient,
    unit_reduction,
    units,
)

from oracles import (brute_cyclic_subgroup_count, brute_totient, brute_units,
                     idempotent_family_problems, reduce_root_combination)


def test_divisor_closure_examples():
    assert list(divisor_closure([12])) == [1, 2, 3, 4, 6, 12]
    assert list(divisor_closure([1])) == [1]
    assert list(divisor_closure([8, 9])) == [1, 2, 3, 4, 8, 9]


def test_divisor_closure_rejects_empty():
    with pytest.raises(ValueError):
        divisor_closure([])


def test_support_rejects_holes():
    with pytest.raises(ValueError):
        SupportSet([2, 4])
    with pytest.raises(ValueError):
        SupportSet([1, 4])


def test_covering_pairs():
    s = support_of_divisors(12)
    assert s.covering_pairs() == [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (4, 12), (6, 12)]


def test_totient_small():
    assert totient(1) == 1
    assert totient(12) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400))
def test_totient_counts_units(n):
    assert totient(n) == brute_totient(n) == len(units(n))


@given(st.sampled_from([(3, 5), (3, 7), (5, 7), (2, 11), (11, 13)]))
def test_totient_multiplicative_on_distinct_primes(pq):
    p, q = pq
    assert totient(p * q) == (p - 1) * (q - 1)


def test_units_examples():
    assert list(units(4)) == [1, 3]
    assert list(units(12)) == [1, 5, 7, 11]
    assert list(units(1)) == [1]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200))
def test_units_group_closure(n):
    un = units(n)
    assert list(un) == brute_units(n)
    assert 1 in un
    for a in list(un)[:6]:
        for b in list(un)[:6]:
            assert un.mul(a, b) in un
        assert un.mul(a, un.inv(a)) == 1


def test_unit_reduction_example():
    mapping, fibers = unit_reduction(12, 4)
    assert mapping == {1: 1, 5: 1, 7: 3, 11: 3}
    assert fibers == {1: [1, 5], 3: [7, 11]}


def test_unit_reduction_identity_and_trivial():
    mapping, fibers = unit_reduction(4, 4)
    assert mapping == {1: 1, 3: 3}
    mapping, fibers = unit_reduction(4, 2)
    assert mapping == {1: 1, 3: 1} and fibers == {1: [1, 3]}
    mapping, fibers = unit_reduction(6, 1)
    assert fibers == {1: [1, 5]}


def test_unit_reduction_requires_divisibility():
    with pytest.raises(ValueError):
        unit_reduction(12, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120).flatmap(
    lambda m: st.sampled_from(divisors(m)).map(lambda n: (m, n))))
def test_reduction_is_surjective_partition(mn):
    m, n = mn
    mapping, fibers = unit_reduction(m, n)
    seen = [u for j in units(n) for u in fibers[j]]
    assert sorted(seen) == list(units(m))          # disjoint cover
    assert all(fibers[j] for j in units(n))        # surjective
    for u, j in mapping.items():
        assert reduce_unit(m, n, u) == j


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(12, 6, 3), (24, 12, 4), (60, 30, 6), (36, 12, 2), (48, 24, 8)]))
def test_reduction_composes(mnk):
    m, n, k = mnk
    assert m % n == 0 and n % k == 0
    map_mn, _ = unit_reduction(m, n)
    map_nk, _ = unit_reduction(n, k)
    map_mk, _ = unit_reduction(m, k)
    for u in units(m):
        assert map_nk[map_mn[u]] == map_mk[u]


def test_prime_utilities():
    assert prime_factors(360) == [2, 3, 5]
    assert is_prime(97) and not is_prime(1) and not is_prime(91)


def _closure(n, gens):
    """The subgroup of units mod n generated by gens, by repeated products."""
    sub, frontier = {1}, [1]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g % n
                if b not in sub:
                    sub.add(b)
                    nxt.append(b)
        frontier = nxt
    return sub


def test_unit_generators_examples():
    assert units(1).generators() == ()
    assert units(2).generators() == ()
    assert units(12).generators() == (5, 7)
    assert units(90).generators() == (7, 11)
    assert len(units(840).generators()) == 5


@pytest.fixture(scope="module")
def fresh_unit_generators():
    """One sweep of fresh groups (the uncached constructor) over n <= 3000,
    shared by the two tests below.  Per n it keeps the generators, whether
    a second call returns the cached tuple, whether each generator is a
    unit, and the units as a compact array; holding the groups themselves
    would take about 270 MB."""
    out = []
    for n in range(1, 3001):
        un = units.__wrapped__(n)
        gens = un.generators()
        out.append((n, gens, un.generators() is gens, all(g in un for g in gens),
                    array("H", un.elements)))
    return out


def test_unit_generators_generate_deterministically(fresh_unit_generators):
    for n, gens, cached, are_units, elements in fresh_unit_generators:
        assert gens == tuple(sorted(gens)) and len(set(gens)) == len(gens), n
        assert gens == units.__wrapped__(n).generators(), n
        assert cached, n
        assert are_units, n
        assert _closure(n, gens) == set(elements), n


def test_unit_generators_are_all_needed(fresh_unit_generators):
    # negative control: without the last generator the closure is a proper subgroup
    for n, gens, _, _, elements in fresh_unit_generators[2:]:
        assert gens, n
        sub = _closure(n, gens[:-1])
        assert len(sub) < len(elements) and gens[-1] not in sub, n


def test_unit_walk_reaches_every_unit_once_from_earlier_ones():
    for n in range(1, 400):
        un = units(n)
        gens = un.generators()
        known = {1, *gens}
        for u, g, l in un.walk():
            assert g in gens and l in known and u not in known, (n, u)
            assert u == un.mul(g, l), (n, u)
            known.add(u)
        assert known == set(un.elements), n
        assert un.walk() is un.walk(), n


# --- rational character blocks

def test_block_count_is_the_number_of_cyclic_subgroups():
    for n in sorted(set(range(1, 401)) | set(divisors(2520))):
        assert len(character_blocks(n)) == brute_cyclic_subgroup_count(n), n


def test_ramanujan_sums_against_roots_of_unity():
    for d in range(1, 31):
        for s in range(d):
            roots: dict[int, Fraction] = {}
            for k in range(1, d + 1):
                if gcd(k, d) == 1:
                    roots[k * s % d] = roots.get(k * s % d, Fraction(0)) + 1
            reduced = reduce_root_combination(roots, d)
            assert reduced[0] == ramanujan_sum(d, s) and not any(reduced[1:]), (d, s)


def test_blocks_split_the_group_algebra_into_fields():
    for n in list(range(1, 61)) + [63, 80, 120, 240]:
        blocks = character_blocks(n)
        assert sum(b.degree for b in blocks) == totient(n)
        assert len({b.key for b in blocks}) == len(blocks)
        for b in blocks:
            assert b.level == n and len(b.exponents) == totient(n)
            assert b.exponents[units(n).index(b.generator)] == 1 % b.order
            assert n % b.conductor == 0


def test_blocks_inflate_along_reductions():
    for n in [12, 60, 72, 360]:
        by_key = {b.key: b for b in character_blocks(n)}
        for f in divisors(n):
            uf = units(f)
            for b in character_blocks(f):
                big = by_key[b.key]
                assert big.order == b.order
                assert big.exponents == tuple(b.exponents[uf.index(reduce_unit(n, f, g))]
                                              for g in units(n))


def block_elements(n, blocks):
    size = totient(n)
    return [{g: Fraction(w, size) for g, w in zip(units(n), b.weights()) if w} for b in blocks]


def kernel_averages(n, blocks):
    """e with its (1 - eps_L) factors dropped: the average over the kernel K."""
    out = []
    for b in blocks:
        kernel = [g for g, s in zip(units(n), b.exponents) if s == 0]
        out.append({g: Fraction(1, len(kernel)) for g in kernel})
    return out


@pytest.mark.parametrize("n", list(range(1, 41)) + [48, 80, 120])
def test_block_idempotents_are_complete_and_orthogonal(n):
    blocks = character_blocks(n)
    assert idempotent_family_problems(block_elements(n, blocks), n) == []
    if totient(n) > 1:
        # negative controls: drop one block, or each block's (1 - eps_L) factors
        assert idempotent_family_problems(block_elements(n, blocks[:-1]), n)
        assert idempotent_family_problems(kernel_averages(n, blocks), n)
