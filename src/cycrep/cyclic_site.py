"""Arithmetic of the indexing site.

Finite divisor-closed supports inside the divisibility poset of positive
integers, the unit groups (Z/nZ)^x acting as outer automorphisms of the
cyclic group of order n, and the reduction maps between unit groups induced
by the preferred projections, together with their fibers.

Everything here is small enough for trial division; n stays in the low
thousands throughout the package.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


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


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def totient(n: int) -> int:
    """Euler totient; the dimension of the n-th cyclotomic field over Q."""
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p in prime_factors(n):
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


class UnitsGroup:
    """The multiplicative group of residues coprime to n.

    The trivial case n = 1 is represented with the single element 1 so that
    reduction maps stay total (residue arithmetic mod 1 would give 0).
    """

    __slots__ = ("modulus", "elements", "_index", "_gens", "_walk")

    def __init__(self, modulus: int, elements: Sequence[int]):
        self.modulus = modulus
        self.elements = tuple(sorted(elements))
        self._index = {u: i for i, u in enumerate(self.elements)}
        self._gens: tuple[int, ...] | None = None
        self._walk: tuple[tuple[int, int, int], ...] | None = None

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
        is trivial (n = 1, 2).  A property that is closed under products
        and holds at 1 and at every generator holds on the whole group;
        that is what lets the unit-quantified checks and solves of the
        package loop over these units instead of all of them.
        """
        if self._gens is None:
            gens: list[int] = []
            sub = {1}
            for u in self.elements:
                if u in sub:
                    continue
                gens.append(u)
                # the group is abelian: <sub, u> is the union of the cosets sub*u^k
                coset, power = list(sub), u
                while power not in sub:
                    sub.update(self.mul(h, power) for h in coset)
                    power = self.mul(power, u)
            self._gens = tuple(gens)
        return self._gens

    def walk(self) -> tuple[tuple[int, int, int], ...]:
        """Every unit other than 1 and the generators, as a product, cached.

        Triples (u, g, l) with u = g * l, g a generator and l either 1, a
        generator or the u of an earlier triple: a breadth-first search
        from 1 over multiplication by the generators.  A multiplicative
        table known at 1 and at the generators is completed by one product
        per triple, in order.
        """
        if self._walk is None:
            gens = self.generators()
            seen = {1, *gens}
            steps: list[tuple[int, int, int]] = []
            queue = [1, *gens]
            for l in queue:
                for g in gens:
                    u = self.mul(g, l)
                    if u not in seen:
                        seen.add(u)
                        steps.append((u, g, l))
                        queue.append(u)
            self._walk = tuple(steps)
        return self._walk

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
