from array import array
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from cycrep import cyclic_site
from cycrep.cyclic_site import (
    SupportSet,
    _cyclic_factors,
    character_blocks,
    divisor_closure,
    divisors,
    factorization,
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
                     greedy_unit_generators, idempotent_family_problems,
                     product_of_powers_blocks, reduce_root_combination)


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
    assert s.squares() == [(1, 2, 3), (2, 2, 3)]


def _brute_chain(n, m):
    """n, then the prime factors of m/n with multiplicity, smallest first,
    found by trial division by every integer, multiplied on one at a time."""
    out, rest = [n], m // n
    for p in range(2, rest + 1):
        while rest % p == 0:
            out.append(out[-1] * p)
            rest //= p
    return out


@pytest.mark.parametrize("support", [support_of_divisors(2520),
                                     divisor_closure([10, 14, 15, 21])])
def test_chain_against_brute_force(support):
    for m in support:
        for n in divisors(m):
            chain = support.chain(n, m)
            assert chain == _brute_chain(n, m)
            assert chain[0] == n and chain[-1] == m
            assert all(c in support for c in chain)
            primes = [b // a for a, b in zip(chain, chain[1:])]
            assert all(is_prime(p) and a * p == b for a, b, p in zip(chain, chain[1:], primes))
            assert primes == sorted(primes)


def test_chain_refuses_levels_outside_the_support_and_non_divisors():
    s = support_of_divisors(12)
    assert s.chain(4, 4) == [4]
    for n, m in [(1, 24), (5, 5), (8, 4), (3, 4), (4, 6), (12, 4)]:
        with pytest.raises(ValueError):
            s.chain(n, m)


@pytest.mark.parametrize("support", [support_of_divisors(2520), support_of_divisors(12),
                                     divisor_closure([10, 14, 15, 21]), SupportSet([1, 2, 3]),
                                     SupportSet([1])])
def test_squares_against_brute_force(support):
    primes = [p for p in range(2, max(support) + 1) if is_prime(p)]
    brute = [(n, q, r) for n in support for q in primes for r in primes
             if q < r and n * q * r in support]
    assert support.squares() == sorted(brute)


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


def _order(n, g):
    """The multiplicative order of the unit g mod n: the least divisor d of
    phi(n) with g^d = 1."""
    return next(d for d in divisors(totient(n)) if pow(g, d, n) == 1 % n)


def test_unit_generators_examples():
    assert units(1).generators() == ()
    assert units(2).generators() == ()
    # one generator per cyclic factor, each 1 at the other prime power:
    # -1 mod 4 and the primitive root 2 mod 3 at 12
    assert sorted((g % 4, g % 3) for g in units(12).generators()) == [(1, 2), (3, 1)]
    assert units(7).generators() == (3,)
    assert len(units(90).generators()) == 2
    assert len(units(840).generators()) == 5


@pytest.fixture(scope="module")
def fresh_unit_generators():
    """One sweep of fresh groups (the uncached constructor) over n <= 3000,
    shared by the tests below.  Per n it keeps the generators, whether a
    second call returns the cached tuple, whether each generator is a unit,
    and the units as a compact array; holding the groups themselves would
    take about 270 MB."""
    out = []
    for n in range(1, 3001):
        un = units.__wrapped__(n)
        gens = un.generators()
        out.append((n, gens, un.generators() is gens, all(g in un for g in gens),
                    array("H", un.elements)))
    return out


def test_unit_generators_generate_deterministically(fresh_unit_generators):
    for n, gens, cached, are_units, elements in fresh_unit_generators:
        assert len(set(gens)) == len(gens), n
        assert gens == units.__wrapped__(n).generators(), n
        assert cached, n
        assert are_units, n
        assert _closure(n, gens) == set(elements), n
        assert prod(_order(n, g) for g in gens) == len(elements), n


def _assert_direct_decomposition(n):
    factors = _cyclic_factors(n)
    assert tuple(g for g, _ in factors) == units(n).generators(), n
    powers = [p ** k for p, k in factorization(n)]
    for g, a in factors:
        # order exactly a: g^a = 1, and no g^(a/p) for a prime p | a
        assert pow(g, a, n) == 1 % n, (n, g)
        assert all(pow(g, a // p, n) != 1 % n for p in prime_factors(a)), (n, g)
        # a lift from one prime power q: 1 modulo every other
        assert sum(g % q != 1 % q for q in powers) == 1, (n, g)
    assert prod(a for _, a in factors) == totient(n), n


def test_cyclic_factors_decompose_directly(fresh_unit_generators):
    for n, gens, _, _, _ in fresh_unit_generators:
        _assert_direct_decomposition(n)
        assert len(gens) <= len(greedy_unit_generators(n)), n
    for n in divisors(5040):
        _assert_direct_decomposition(n)
    # where the greedy set is not minimal: (2, 3) at 7, (2, 3) at 17, (3, 7) at 22
    for n in [7, 17, 22]:
        assert len(units(n).generators()) == 1 < len(greedy_unit_generators(n)), n


def test_unit_generators_are_all_needed(fresh_unit_generators):
    # negative control: without the last generator the closure is a proper subgroup
    for n, gens, _, _, elements in fresh_unit_generators[2:]:
        assert gens, n
        sub = _closure(n, gens[:-1])
        assert len(sub) < len(elements) and gens[-1] not in sub, n


def test_unit_tree_spans_in_normal_form_with_its_relations():
    for n in sorted({*range(1, 601), *divisors(5040)}):
        un = units(n)
        gens = un.generators()
        tree = un.tree()
        assert un.tree() is tree, n
        orders = [_order(n, s) for s in gens]
        words = {1: (0,) * len(gens)}
        for u, s, h in tree.edges:
            assert s in gens and h in words and u not in words, (n, u)
            assert u == un.mul(s, h), (n, u)
            i = gens.index(s)
            word = words[h][:i] + (words[h][i] + 1,) + words[h][i + 1:]
            # s is the last generator the word uses: the parent drops one s_i
            assert not any(word[i + 1:]) and word[i] < orders[i], (n, u, word)
            words[u] = word
        assert set(words) == set(un.elements) and len(tree.edges) == len(un) - 1, n
        r = len(gens)
        assert len(tree.relations) == r + r * (r - 1) // 2, n
        for (a, b, c), s, k in zip(tree.relations, gens, orders):
            assert (a, b, c) == (s, pow(s, k - 1, n), 1 % n), (n, s)
        assert list(tree.relations[r:]) == [(a, b, un.mul(a, b)) for i, a in enumerate(gens)
                                            for b in gens[i + 1:]], n


# --- rational character blocks

def test_block_count_is_the_number_of_cyclic_subgroups():
    for n in sorted(set(range(1, 401)) | set(divisors(2520))):
        assert len(character_blocks(n)) == brute_cyclic_subgroup_count(n), n


def test_blocks_match_the_product_of_powers_logs(monkeypatch):
    levels = sorted({*range(1, 401), *divisors(5040)})
    got = [character_blocks(n) for n in levels]
    monkeypatch.setattr(cyclic_site, "_primitive_blocks", product_of_powers_blocks)
    for n, blocks in zip(levels, got):
        assert character_blocks.__wrapped__(n) == blocks, n


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
