"""The acceptance battery.

Each test is one numbered criterion, asserted exactly (no tolerances: all
arithmetic is rational) and timed where a budget is part of the criterion.
Every test prints a single pass line on success; failures raise with the
offending instance in the message.
"""

import random
import time
from fractions import Fraction

import pytest

from cycrep.cyclic_site import (
    SupportSet,
    divisor_closure,
    divisors,
    support_of_divisors,
    totient,
    units,
)
from cycrep.linalg import QMatrix, rank, solve
from cycrep.modules import (
    atomic_module,
    dual_system,
    random_module,
    regular_module,
    semifree_module,
    validate,
)
from cycrep.hom_ext import (
    ext_via_resolution,
    hom_direct,
    hom_via_limit,
    lim_derived,
    sequential_lim1,
    tower_along_chain,
)
from cycrep.normal_basis import classifier_report, normal_basis_report, unscaled_family
from cycrep.rep_ring import (
    RUElement,
    crt_iso,
    mul,
    restrict_sub,
    restrict_sub_matrix,
    tau_level,
    tau_ru_module,
    transfer,
    transfer_matrix,
    transfer_ideal,
)
from cycrep.resolution import build_complex, nontrivial_ext_witness, verify_resolution

from oracles import eliminating_sequential_lim1, stacked_matrix


def _passed(n: int, text: str) -> None:
    print(f"[criterion {n:2d}] PASS: {text}")


# ---------------------------------------------------------------------------
# shared battery for criteria 6, 7 and 8
# ---------------------------------------------------------------------------

SUPPORTS = {
    "divisors:12": support_of_divisors(12),
    "divisors:60": support_of_divisors(60),
    "upto:10": divisor_closure(list(range(1, 11))),
}


def battery(support: SupportSet):
    mods = [("regular", regular_module(support)),
            ("tauRU", tau_ru_module(support)),
            ("atom", atomic_module(1, 1, support))]
    for n in divisors(12):
        mods.append((f"semifree:{n}", semifree_module(n, support)))
    mods.append(("atomic:4:2", atomic_module(4, 2, support)))
    for seed in range(20):
        mods.append((f"random:{seed}", random_module(support, seed)))
    return mods


_ext_cache: dict = {}


def ext_dims(tag: str, x, support_name: str, k: int):
    key = (tag, support_name, k)
    if key not in _ext_cache:
        support = (SUPPORTS.get(support_name) or
                   support_of_divisors(int(support_name.split(":")[1])))
        _ext_cache[key] = ext_via_resolution(x, regular_module(support), k)
    return _ext_cache[key]


def spans_equal(h1, h2) -> bool:
    if h1.dimension != h2.dimension:
        return False
    if h1.dimension == 0:
        return True
    m1, m2 = stacked_matrix(h1), stacked_matrix(h2)
    return (all(solve(m1, m2.column_vector(j)) is not None for j in range(m2.cols))
            and all(solve(m2, m1.column_vector(j)) is not None for j in range(m1.cols)))


# ---------------------------------------------------------------------------


def test_criterion_01_totient_dimensions():
    start = time.time()
    for n in range(1, 101):
        assert tau_level(n).dim == totient(n), f"quotient dimension wrong at {n}"
    elapsed = time.time() - start
    assert elapsed < 60, f"totient dimension sweep took {elapsed:.1f}s"
    _passed(1, f"transfer-quotient dimension equals the totient for n <= 100 "
               f"({elapsed:.1f}s)")


def test_criterion_02_transfer_ideal_at_prime_powers():
    cases = {2: (2, 1), 4: (2, 2), 8: (2, 3), 16: (2, 4),
             3: (3, 1), 9: (3, 2), 27: (3, 3),
             5: (5, 1), 25: (5, 2), 7: (7, 1), 49: (7, 2)}
    for n, (p, k) in cases.items():
        ideal = transfer_ideal(n)
        norm = [0] * n
        for i in range(p):
            norm[(i * p ** (k - 1)) % n] = 1
        principal = QMatrix.from_columns(
            [[norm[(i - s) % n] for i in range(n)] for s in range(n)], rows=n)
        # double inclusion
        for j in range(ideal.cols):
            assert solve(principal, ideal.column_vector(j)) is not None, \
                f"transfer outside the norm ideal at {n}"
        for j in range(principal.cols):
            assert solve(ideal, principal.column_vector(j)) is not None, \
                f"norm multiple outside the transfer span at {n}"
    _passed(2, "proper transfers span exactly the norm-polynomial ideal at "
               "the prime powers up to 49")


def test_criterion_03_coprime_multiplication_invertible():
    for n, m in [(2, 3), (4, 9), (8, 27), (4, 25), (3, 8)]:
        assert rank(crt_iso(n, m)) == n * m, f"multiplication map singular at {(n, m)}"
    _passed(3, "the coprime-level multiplication matrix is invertible on all "
               "five test pairs")


@pytest.mark.parametrize("n_top", [12, 60, 360, 2520])
def test_criterion_04_normal_basis_isomorphism(n_top):
    start = time.time()
    report = normal_basis_report(support_of_divisors(n_top))
    elapsed = time.time() - start
    bad_levels = [l.level for l in report.levels if not (l.invertible and l.equivariant)]
    bad_squares = [(s.source, s.target) for s in report.squares if not s.natural]
    assert not bad_levels and not bad_squares, (bad_levels, bad_squares)
    if n_top == 2520:
        assert elapsed < 300, f"divisors(2520) verification took {elapsed:.1f}s"
    _passed(4, f"normal-basis map over divisors({n_top}) is invertible, "
               f"equivariant and natural at every level ({elapsed:.1f}s)")


def test_criterion_05_scaling_necessity():
    report = classifier_report(unscaled_family(support_of_divisors(12)))
    failing = [(s.source, s.target, s.failing_unit)
               for s in report.squares if not s.natural]
    assert failing, "the unscaled family unexpectedly commutes with restrictions"
    deep = [(a, b) for a, b, _ in failing
            if any(a % (p * p) == 0 for p in (2, 3, 5, 7))]
    assert (2, 4) in {(a, b) for a, b, _ in failing}, failing
    assert deep, "no failing square above exponent one"
    _passed(5, f"the unscaled family fails restriction compatibility; "
               f"failing squares {[(a, b) for a, b, _ in failing]}")


@pytest.mark.parametrize("support_name", list(SUPPORTS))
def test_criterion_06_hom_oracle_equivalence(support_name):
    support = SUPPORTS[support_name]
    reg = regular_module(support)
    for tag, x in battery(support):
        direct = hom_direct(x, reg)
        limit = hom_via_limit(x)
        assert direct.dimension == limit.dimension, (support_name, tag)
        assert spans_equal(direct, limit), (support_name, tag)
    _passed(6, f"direct and inverse-limit morphism spaces agree (dimension "
               f"and span) for the whole battery over {support_name}")


def test_criterion_07_ext_equals_derived_limit():
    start = time.time()
    for support_name, support in SUPPORTS.items():
        for tag, x in battery(support):
            dims = ext_dims(tag, x, support_name, 3)
            lims = lim_derived(dual_system(x), 3).dims
            assert dims == lims, (support_name, tag, dims, lims)
    elapsed = time.time() - start
    assert elapsed < 600, f"extension/derived-limit sweep took {elapsed:.1f}s"
    _passed(7, f"resolution route equals derived limits through degree 3 for "
               f"the whole battery over all three supports ({elapsed:.1f}s)")


@pytest.mark.parametrize("n_top", [12, 60, 360])
def test_criterion_08_vanishing_on_directed_supports(n_top):
    support = support_of_divisors(n_top)
    name = f"divisors:{n_top}"
    for tag, x in battery(support):
        dims = ext_dims(tag, x, name, 3)
        assert dims[1:] == [0, 0, 0], (n_top, tag, dims)
    # the endomorphisms of the transfer quotient: replace the target by the
    # regular module through the isomorphism established by criterion 4
    tau = tau_ru_module(support)
    assert ext_dims("tauRU", tau, name, 3)[1] == 0
    if n_top == 12:
        literal = ext_via_resolution(tau, tau, 1)
        assert literal[1] == 0 and literal[0] == totient(n_top)
    _passed(8, f"all higher extension groups into the regular target vanish "
               f"over divisors({n_top}), including the quotient's own "
               f"first extensions")


def test_criterion_09_non_directed_first_derived_limit():
    support = SupportSet([1, 2, 3])
    atom = atomic_module(1, 1, support)
    reg = regular_module(support)
    assert hom_direct(atom, reg).dimension == 0
    dims = ext_via_resolution(atom, reg, 2)
    assert dims == [0, 1, 0], dims
    lims = lim_derived(dual_system(atom), 2).dims
    assert lims == [0, 1, 0], lims
    _passed(9, "over {1,2,3} the level-1 atom has no morphisms, a "
               "one-dimensional first extension group, and matching derived limits")


def test_criterion_10_resolution_and_witnesses():
    start = time.time()
    support = support_of_divisors(30)
    cx = build_complex([2, 3, 5], 3, support)
    report = verify_resolution(cx)
    assert report.ok, report.failed()
    for n in (1, 2):
        witness, xi, coker = nontrivial_ext_witness(cx, n)
        assert witness.hom_below_dim == 0, (n, witness)
        assert not witness.cocycle_is_zero and witness.composes_to_zero, (n, witness)
        assert witness.nontrivial
    elapsed = time.time() - start
    assert elapsed < 120, f"resolution verification took {elapsed:.1f}s"
    _passed(10, f"the prime-set resolution over divisors(30) is exact with a "
                f"working contraction, and degrees 1 and 2 carry nontrivial "
                f"extension witnesses ({elapsed:.1f}s)")


def test_criterion_11_induction_restriction_adjunction():
    for n in range(1, 61):
        for d in divisors(n):
            assert transfer_matrix(d, n) == restrict_sub_matrix(n, d).transpose(), \
                (d, n)
    rng = random.Random(2024)
    pairs = 0
    while pairs < 100:
        n = rng.randint(2, 60)
        d = rng.choice(divisors(n))
        a = RUElement(n, [Fraction(rng.randint(-4, 4)) for _ in range(n)])
        b = RUElement(d, [Fraction(rng.randint(-4, 4)) for _ in range(d)])
        assert transfer(d, n, mul(restrict_sub(n, d, a), b)) == \
            mul(a, transfer(d, n, b)), (n, d)
        pairs += 1
    _passed(11, "induction is the transpose of restriction for all d | n <= 60, "
                "and the projection formula holds on 100 seeded pairs")


def test_criterion_12_surjective_towers_have_no_lim1():
    for n_top in (12, 60):
        support = support_of_divisors(n_top)
        d = dual_system(regular_module(support))
        chains = [[1, 2, 4, 12], [1, 3, 6, 12]] if n_top == 12 else \
                 [[1, 2, 4, 12, 60], [1, 5, 15, 30, 60], [1, 2, 6, 12, 60]]
        for chain in chains:
            dims, maps = tower_along_chain(d, chain)
            rep = sequential_lim1(dims, maps)
            assert rep == eliminating_sequential_lim1(dims, maps), (n_top, chain)
            assert rep.mittag_leffler, (n_top, chain)
            assert rep.lim1_dim == 0, (n_top, chain)
    _passed(12, "dual towers of the regular module along divisibility chains "
                "are surjective with vanishing first derived limit")
