"""Arithmetic of the indexing site.

Finite divisor-closed supports inside the divisibility poset of positive
integers, the unit groups (Z/nZ)^x acting as outer automorphisms of the
cyclic group of order n, and the reduction maps between unit groups induced
by the preferred projections, together with their fibers.

The rational character blocks of units(n) live here too: the primitive
idempotents of the group algebra Q[units(n)], one per Galois orbit of
Dirichlet characters mod n.

Everything here is small enough for trial division; n stays in the low
thousands throughout the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence


def divisors(n: int) -> list[int]:
    """All positive divisors of n, increasing."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (p, multiplicity) pairs, p increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, increasing."""
    return [p for p, _ in factorization(n)]


def is_prime(n: int) -> bool:
    return factorization(n) == [(n, 1)]


def totient(n: int) -> int:
    """Euler totient; the dimension of the n-th cyclotomic field over Q."""
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p, _ in factorization(n):
        out = out // p * (p - 1)
    return out


class SupportSet:
    """A finite divisor-closed set of positive integers containing 1."""

    __slots__ = ("members", "_set")

    def __init__(self, members: Iterable[int]):
        ms = sorted(set(members))
        if not ms or ms[0] < 1:
            raise ValueError("support must consist of positive integers")
        mset = frozenset(ms)
        if 1 not in mset:
            raise ValueError("support must contain 1")
        for n in ms:
            for d in divisors(n):
                if d not in mset:
                    raise ValueError(f"support not divisor-closed: {d} divides {n} but is missing")
        self.members = tuple(ms)
        self._set = mset

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, n: int) -> bool:
        return n in self._set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self) -> str:
        return f"SupportSet({list(self.members)})"

    def covering_pairs(self) -> list[tuple[int, int]]:
        """Pairs (n, n*q), q prime, both in the support; the poset edges."""
        mset = set(self.members)
        out = []
        for m in self.members:
            for q in prime_factors(m):
                if m // q in mset:
                    out.append((m // q, m))
        return sorted(out)

    def chain(self, n: int, m: int) -> list[int]:
        """The covering path n = c_0 | c_1 | ... | c_k = m, each level a
        prime times the one before, the primes of m/n in increasing order.

        Every composite along the poset (restrictions up, structure maps
        down) is taken along this path; path independence makes any other
        agree.
        """
        if n not in self._set or m not in self._set:
            raise ValueError(f"levels {n}, {m} must lie in the support")
        if m % n:
            raise ValueError(f"{n} does not divide {m}")
        out = [n]
        for p, k in factorization(m // n):
            for _ in range(k):
                out.append(out[-1] * p)
        return out

    def squares(self) -> list[tuple[int, int, int]]:
        """The triples (n, q, r), q < r primes, with n*q*r in the support,
        sorted: the commuting squares n -> n*q, n*r -> n*q*r."""
        steps: dict[int, list[int]] = {}
        for n, m in self.covering_pairs():
            steps.setdefault(n, []).append(m // n)
        return sorted((n, q, r) for n, qs in steps.items() for q in qs for r in qs
                      if q < r and n * q * r in self._set)

    def multiples_of(self, n: int) -> list[int]:
        return [m for m in self.members if m % n == 0]


def divisor_closure(seeds: Sequence[int]) -> SupportSet:
    """The smallest divisor-closed set containing the seeds."""
    if not seeds:
        raise ValueError("empty seed list")
    if any(s < 1 for s in seeds):
        raise ValueError("seeds must be positive")
    out: set[int] = set()
    for s in seeds:
        out.update(divisors(s))
    return SupportSet(out)


def support_of_divisors(n: int) -> SupportSet:
    return SupportSet(divisors(n))


class UnitTree(NamedTuple):
    """A spanning tree of the Cayley graph of units(n) on its greedy
    generators s_1, ..., s_r, and the relations of the presentation they
    define (``UnitsGroup.tree``).

    ``edges`` holds one (u, s, parent) per unit u other than 1, with
    u = s * parent, s a generator and parent 1 or the u of an earlier edge.
    ``relations`` holds triples (a, b, c) that stand for A(a) A(b) = A(c):
    first the power relation (s_i, s_i^(k_i - 1), s_i^(k_i)) of each
    generator, k_i its relative order, then the commutator
    (s_i, s_j, s_i s_j) of each pair i < j.
    """

    edges: tuple[tuple[int, int, int], ...]
    relations: tuple[tuple[int, int, int], ...]


class UnitsGroup:
    """The multiplicative group of residues coprime to n.

    The trivial case n = 1 is represented with the single element 1 so that
    reduction maps stay total (residue arithmetic mod 1 would give 0).
    """

    __slots__ = ("modulus", "elements", "_index", "_gens", "_tree")

    def __init__(self, modulus: int, elements: Sequence[int]):
        self.modulus = modulus
        self.elements = tuple(sorted(elements))
        self._index = {u: i for i, u in enumerate(self.elements)}
        self._gens: tuple[int, ...] | None = None
        self._tree: UnitTree | None = None

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, u: int) -> bool:
        return u in self._index

    def index(self, u: int) -> int:
        return self._index[u]

    def mul(self, a: int, b: int) -> int:
        if self.modulus == 1:
            return 1
        return a * b % self.modulus

    def inv(self, a: int) -> int:
        if self.modulus == 1:
            return 1
        return pow(a, -1, self.modulus)

    def generators(self) -> tuple[int, ...]:
        """A generating set, increasing, chosen greedily and cached.

        Each generator is the smallest unit outside the subgroup generated
        by the earlier ones, so the set is irredundant and depends on n
        only: (7, 11) at 90, five units at 840.  It is empty when the group
        is trivial (n = 1, 2).  A property of single units that is closed
        under products and holds at 1 and at every generator holds on the
        whole group, so the equivariance checks and solves of the package
        loop over these units instead of all of them.  A unit table is
        checked multiplicative, and completed from these units, along
        ``tree``.
        """
        if self._gens is None:
            self.tree()
        return self._gens

    def tree(self) -> UnitTree:
        """The Cayley spanning tree and relations of the greedy generators,
        cached (see ``UnitTree``).

        With H_i the subgroup generated by s_1, ..., s_i, every unit is
        s_i^e h for one i, 0 < e < k_i and h in H_(i-1), and its parent is
        s_i^(e-1) h; so the tree word of a unit is its normal form
        s_r^(e_r) ... s_1^(e_1), each 0 <= e_i < k_i, and the edges come
        in the order of those words.  Building H_i coset by coset is also
        what picks the generators.
        """
        if self._tree is None:
            n = self.modulus
            gens: list[int] = []
            edges: list[tuple[int, int, int]] = []
            powers: list[tuple[int, int, int]] = []
            members, sub = [1], {1}
            for s in self.elements:
                if s in sub:
                    continue
                power = s * s % n
                while power not in sub:
                    power = power * s % n
                # the cosets s^e H_(i-1), e = 1 .. k_i - 1, each from the one before
                layer = members[:]
                while True:
                    nxt = [s * h % n for h in layer]
                    if nxt[0] == power:
                        break
                    edges.extend(zip(nxt, [s] * len(nxt), layer))
                    members += nxt
                    layer = nxt
                sub.update(members)
                gens.append(s)
                powers.append((s, layer[0], power))
            commutators = [(a, b, a * b % n) for i, a in enumerate(gens) for b in gens[i + 1:]]
            self._gens = tuple(gens)
            self._tree = UnitTree(tuple(edges), tuple(powers + commutators))
        return self._tree

    def __repr__(self) -> str:
        return f"UnitsGroup(mod {self.modulus}, {list(self.elements)})"


@lru_cache(maxsize=None)
def units(n: int) -> UnitsGroup:
    """(Z/nZ)^x, i.e. the outer automorphism group of the cyclic group C_n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return UnitsGroup(1, (1,))
    return UnitsGroup(n, tuple(u for u in range(1, n) if gcd(u, n) == 1))


def reduce_unit(m: int, n: int, u: int) -> int:
    """Image of a unit mod m under the reduction to units mod n (n | m)."""
    if m % n:
        raise ValueError(f"{n} does not divide {m}")
    return 1 if n == 1 else u % n


def unit_reduction(m: int, n: int) -> tuple[dict[int, int], dict[int, list[int]]]:
    """The surjection units(m) -> units(n) for n | m, with its fibers.

    Returns (mapping, fibers) where fibers[j] lists the units of m reducing
    to j mod n.  The fibers partition units(m).
    """
    if m % n:
        raise ValueError(f"{n} does not divide {m}")
    um, un = units(m), units(n)
    mapping: dict[int, int] = {}
    fibers: dict[int, list[int]] = {j: [] for j in un}
    for u in um:
        j = reduce_unit(m, n, u)
        mapping[u] = j
        fibers[j].append(u)
    return mapping, fibers


# ---------------------------------------------------------------------------
# rational character blocks
# ---------------------------------------------------------------------------

def ramanujan_sum(d: int, s: int) -> int:
    """c_d(s), the sum of the s-th powers of the primitive d-th roots of
    unity: mu(q) phi(d) / phi(q) with q = d / gcd(d, s)."""
    q = d // gcd(d, s)
    fac = factorization(q)
    if any(k > 1 for _, k in fac):
        return 0
    return (-1) ** len(fac) * (totient(d) // totient(q))


@lru_cache(maxsize=None)
def _ramanujan_row(d: int) -> tuple[int, ...]:
    """c_d(s) for s = 0, ..., d - 1, cached: every block of order d reads
    its weights from this row."""
    return tuple(ramanujan_sum(d, s) for s in range(d))


class CharacterBlock(NamedTuple):
    """One primitive idempotent e of Q[units(n)].

    Its characters are one Galois orbit of Dirichlet characters mod n, all
    with the same kernel K and the same order d, so units(n)/K is cyclic of
    order d.  ``exponents`` lists, in the order of ``units(n).elements``,
    the s(g) mod d with g in c^s(g) K, where c = ``generator``.  Then

        e = (1/|units(n)|) sum_g c_d(s(g)) g

    with c_d the Ramanujan sum, and e Q[units(n)] is the field Q(zeta_d), of
    degree phi(d), on which c acts as zeta_d.  ``key`` is (conductor, index
    among the primitive blocks there): a block at n and its inflation to a
    multiple of n share their key.
    """

    level: int
    key: tuple[int, int]
    order: int
    exponents: tuple[int, ...]
    generator: int

    @property
    def conductor(self) -> int:
        return self.key[0]

    @property
    def degree(self) -> int:
        """[Q(psi) : Q] = phi(d), the Q-dimension of e Q[units(n)]."""
        return totient(self.order)

    def weights(self) -> list[int]:
        """|units(n)| e as integer coefficients, in the order of units(n)."""
        c = _ramanujan_row(self.order)
        return [c[s] for s in self.exponents]


def _cyclic_factors(n: int) -> list[tuple[int, int]]:
    """(unit, order) pairs whose cyclic groups have units(n) as their direct
    product: a primitive root for each odd prime power, -1 and 5 for 2^k,
    each lifted by the Chinese remainder theorem to be 1 at the other
    prime powers."""
    out = []
    for p, k in factorization(n):
        q = p ** k
        rest = n // q

        def lift(a: int) -> int:
            return (1 + rest * ((a - 1) * pow(rest, -1, q) % q)) % n

        if p == 2:
            if k >= 2:
                out.append((lift(q - 1), 2))
            if k >= 3:
                out.append((lift(5), q // 4))
        else:
            order = q // p * (p - 1)
            root = next(g for g in range(2, q) if g % p and all(
                pow(g, order // r, q) != 1 for r in prime_factors(order)))
            out.append((lift(root), order))
    return out


@lru_cache(maxsize=None)
def _primitive_blocks(f: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(d, exponents over units(f)) of every block of conductor exactly f.

    The characters of units(f) = prod_i <h_i> are the vectors x with
    chi_x(prod h_i^y_i) = exp(2 pi i sum_i x_i y_i / a_i); each Galois orbit
    {k x : k prime to d} is visited once, from its first member in
    lexicographic order.  A block has conductor f when its characters are
    nontrivial on the kernel of units(f) -> units(f/p) for every prime p.
    """
    uf = units(f)
    factors = _cyclic_factors(f)
    orders = [a for _, a in factors]
    exp = lcm(*orders)
    logs: list[tuple[int, ...]] = [()] * len(uf)
    for ys in product(*(range(a) for a in orders)):
        g = 1
        for (h, _), y in zip(factors, ys):
            g = g * pow(h, y, f) % f
        logs[uf.index(g)] = ys
    kernels = [[uf.index(u) for u in uf if u % (f // p) == 1 % (f // p)]
               for p in prime_factors(f)]
    seen: set[tuple[int, ...]] = set()
    out = []
    for x in product(*(range(a) for a in orders)):
        if x in seen:
            continue
        d = lcm(*(a // gcd(a, xi) for a, xi in zip(orders, x)))
        for k in range(1, d + 1):
            if gcd(k, d) == 1:
                seen.add(tuple(k * xi % a for a, xi in zip(orders, x)))
        scale = [xi * (exp // a) for a, xi in zip(orders, x)]

        def s(i: int) -> int:
            return sum(c * y for c, y in zip(scale, logs[i])) % exp // (exp // d)

        if all(any(s(i) for i in ker) for ker in kernels):
            out.append((d, tuple(s(i) for i in range(len(uf)))))
    return tuple(out)


@lru_cache(maxsize=None)
def character_blocks(n: int) -> tuple[CharacterBlock, ...]:
    """The primitive idempotents of Q[units(n)], cached.

    Each is inflated from a block of exact conductor f | n, f increasing:
    s(g) = s_f(g mod f).  There is one per cyclic subgroup of units(n).
    """
    un = units(n)
    out = []
    for f in divisors(n):
        uf = units(f)
        red = [uf.index(reduce_unit(n, f, g)) for g in un]
        for j, (d, exps_f) in enumerate(_primitive_blocks(f)):
            exps = tuple(exps_f[i] for i in red)
            gen = un.elements[exps.index(1 % d)]
            out.append(CharacterBlock(n, (f, j), d, exps, gen))
    return tuple(out)
