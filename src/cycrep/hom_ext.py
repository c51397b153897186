"""Hom and Ext computations, two independent ways.

``hom_direct`` solves the full linear system cut out by equivariance and
naturality.  ``hom_via_limit`` instead computes the inverse limit of the
levelwise dual system and reconstructs morphisms into the regular module
from compatible families of linear forms.  The two must agree, and that
agreement is one of the package's central cross-checks.

Derived functors of the inverse limit are computed from the nerve cochain
complex of the support poset; Ext groups are computed from minimal
resolutions by the indecomposable projectives e P_n, one for each
primitive idempotent e of Q[units(n)] (``cyclic_site.character_blocks``).
The regular module is their sum over the blocks of each conductor, so it
resolves in degree 0, and every resolution ends by the largest number of
prime factors of a level.  On a support with a maximum element every
higher derived limit vanishes; on non-directed supports they do not, and
the first interesting example lives over the three-element support {1,2,3}.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .cyclic_site import (
    CharacterBlock,
    SupportSet,
    _ramanujan_row,
    character_blocks,
    divisors,
    reduce_unit,
    units,
)
from .linalg import (
    Entry,
    IntView,
    QMatrix,
    _cancel,
    _int_row,
    _int_vecmat,
    rank,
    sparse_kernel,
)
from .modules import (
    InverseSystem,
    ModuleMorphism,
    OutCycModule,
    dual_system,
    regular_module,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


class HomSpace(NamedTuple):
    """A basis of the space of morphisms between two modules."""
    source: OutCycModule
    target: OutCycModule
    basis: list[ModuleMorphism]

    @property
    def dimension(self) -> int:
        return len(self.basis)


class CochainComplex:
    """A sequence of differentials C^0 -> C^1 -> ... with d after d zero.

    The differentials are ``QMatrix``es assembled from sparse row dicts
    (``QMatrix.from_row_dicts``); they are large and a few percent
    nonzero, and ``rank`` reads only their stored entries.  ``dims``, when
    given, are the dimensions of the spaces C^k, for differentials written
    on larger ambient spaces that they factor through (see
    ``_hom_cochain``); otherwise the shapes give them.
    """

    def __init__(self, diffs: list[QMatrix], dims: Optional[list[int]] = None):
        for a, b in zip(diffs, diffs[1:]):
            if b.cols != a.rows:
                raise ValueError("differential shapes do not compose")
        self.diffs = diffs
        self.dims = dims

    def space_dim(self, k: int) -> int:
        if self.dims is not None:
            return self.dims[k] if k < len(self.dims) else 0
        if k < len(self.diffs):
            return self.diffs[k].cols
        if k == len(self.diffs) and self.diffs:
            return self.diffs[-1].rows
        return 0

    def check_d_squared(self) -> bool:
        return all((b @ a).is_zero() for a, b in zip(self.diffs, self.diffs[1:]))

    def cohomology_dims(self, up_to: int, known: Optional[dict[int, int]] = None) -> list[int]:
        """dim H^k for k <= up_to; ``known`` gives the ranks of differentials
        a caller has already eliminated, by degree, and the rest are computed."""
        known = known or {}
        ranks = [known[k] if k in known else rank(d) for k, d in enumerate(self.diffs)]
        out = []
        for k in range(up_to + 1):
            dim_k = self.space_dim(k)
            rk = ranks[k] if k < len(ranks) else 0
            rk_prev = ranks[k - 1] if k >= 1 and k - 1 < len(ranks) else 0
            out.append(dim_k - rk - rk_prev)
        return out


# ---------------------------------------------------------------------------
# Hom by direct linear algebra
# ---------------------------------------------------------------------------

def _offsets(keys, size) -> tuple[dict, int]:
    """Where each key's block starts when blocks of ``size(key)`` entries are
    stacked in key order, and the total length."""
    offsets = {}
    total = 0
    for key in keys:
        offsets[key] = total
        total += size(key)
    return offsets, total


def _hom_squares(x: OutCycModule, y: OutCycModule):
    """The equations of ``hom_direct``'s system, one ``(left, a, right, b)``
    per equation left f_a = f_b right, with left and right as the modules'
    integer views: Y(g) f_n = f_n X(g) for each generator g of units(n),
    levels in support order, then R_y f_n = f_m R_x for each covering pair
    (n, m)."""
    for n in x.support:
        if x.dim(n) * y.dim(n):
            for g in units(n).generators():
                yield y.int_action(n, g), n, x.int_action(n, g), n
    for n, m in x.support.covering_pairs():
        yield y.int_restriction(n, m), n, x.int_restriction(n, m), m


def _square_rows(left: IntView, oa: int, right: IntView, ob: int, da: int):
    """The rows of left f_a - f_b right, one per entry (i, j), where f_a and
    f_b are stored row-major from the offsets oa and ob and f_a has da
    columns: integer rows, each scaled by the denominators of the two
    views."""
    (dl, left_rows), (dr, right_rows) = left, right
    g = gcd(dl, dr)
    sl, sr = dr // g, dl // g
    db = len(right_rows)
    right_cols: list[list[tuple[int, int]]] = [[] for _ in range(da)]
    for t, row in enumerate(right_rows):
        for j, v in row:
            right_cols[j].append((t, sr * v))
    for i, left_row in enumerate(left_rows):
        if sl != 1:
            left_row = [(s, sl * v) for s, v in left_row]
        for j, right_col in enumerate(right_cols):
            # entry (i, j): sum_s left[i,s] f_a[s,j] - sum_t f_b[i,t] right[t,j]
            row = {oa + s * da + j: v for s, v in left_row}
            for t, v in right_col:
                k = ob + i * db + t
                row[k] = row.get(k, 0) - v
            yield row


def _hom_rows(x: OutCycModule, y: OutCycModule, offsets: dict[int, int]):
    """The integer rows of ``hom_direct``'s system, square after square, with
    f_n stored from ``offsets[n]``."""
    for left, a, right, b in _hom_squares(x, y):
        yield from _square_rows(left, offsets[a], right, offsets[b], x.dim(a))


def _estimate_hom_entries(x: OutCycModule, y: OutCycModule) -> int:
    """A bound on the nonzeros of the one sparse system ``hom_direct``
    solves, fill-in not charged: a row of ``_square_rows`` holds at most
    the nonzeros of a row of left and of a column of right."""
    return sum(x.dim(a) * sum(map(len, left_rows)) + len(left_rows) * sum(map(len, right_rows))
               for (_, left_rows), a, (_, right_rows), _ in _hom_squares(x, y))


def hom_direct(x: OutCycModule, y: OutCycModule) -> HomSpace:
    """Basis of the morphism space: the kernel of one sparse system.

    The unknowns are the entries of every level matrix f_n, row-major,
    levels in support order: the coordinates of
    ``ModuleMorphism.stacked_vector``.  The equations are those of
    ``_hom_squares``: equivariance under the generators of units(n), which
    is the same as under every unit, because both actions are
    multiplicative, and naturality on each covering pair.  Their integer
    rows (``_hom_rows``) stream into ``sparse_kernel``, whose presolve
    stores none of the many two-term rows, and its reduced kernel basis is
    written into level matrices.
    """
    if x.support != y.support:
        raise ValueError("support mismatch")
    support = x.support
    offsets, total = _offsets(support, lambda n: x.dim(n) * y.dim(n))
    vecs, _ = sparse_kernel(_hom_rows(x, y, offsets), total)
    levels = [n for n in support if x.dim(n) * y.dim(n)]
    starts = [offsets[n] for n in levels]
    basis = []
    for vec in vecs:
        mats = {n: QMatrix.zeros(y.dim(n), x.dim(n)) for n in support}
        for k, v in vec.items():
            n = levels[bisect_right(starts, k) - 1]
            mats[n][divmod(k - offsets[n], x.dim(n))] = v
        basis.append(ModuleMorphism(x, y, mats))
    return HomSpace(x, y, basis)


# ---------------------------------------------------------------------------
# Hom through the inverse limit of the dual system
# ---------------------------------------------------------------------------

def limit_basis(d: InverseSystem) -> list[dict[int, list[Entry]]]:
    """Basis of the inverse limit: compatible families, one form per level.

    The reduced kernel basis of the sparse rows of lam_n - S lam_m, one
    per coordinate of D(n) and covering pair (n, m) with S: D(m) -> D(n),
    the unknowns being every level's form, levels in support order.
    """
    offsets, total = _offsets(d.support, d.dim)
    rows: list[dict[int, Entry]] = []
    for n, m in d.support.covering_pairs():
        on, om = offsets[n], offsets[m]
        for i, s_row in enumerate(d.structure_step(n, m).data):
            row: dict[int, Entry] = {om + j: -v for j, v in s_row.items()}
            row[on + i] = _F1
            rows.append(row)
    vecs, _ = sparse_kernel(rows, total)
    return [{n: [vec.get(offsets[n] + i, _F0) for i in range(d.dim(n))] for n in d.support}
            for vec in vecs]


def hom_via_limit(x: OutCycModule) -> HomSpace:
    """Morphisms from x into the regular module, via the dual-system limit.

    A compatible family of forms (lam_n) reconstructs to the morphism whose
    level-n matrix has, in the row of basis unit g, the form lam_n composed
    with the action of g^{-1}.  The rows are built along the edges
    (u, s, h) of ``UnitsGroup.tree``, from the row of 1, which is lam_n:
    x is valid and units(n) is abelian, so X(u) = X(h) X(s) and the row of
    u^{-1} is the row of h^{-1} times X(s).  Each row is the sparse product
    of the earlier row's nonzeros with the rows of the integer view of a
    generator's action, kept in integers over a common denominator reduced
    by the gcd of its entries, and divided once per stored entry when that
    denominator is not 1.  Only the generators' views are read, so x's
    unit tables are not completed.
    """
    reg = regular_module(x.support)
    families = limit_basis(dual_system(x))
    mats: list[dict[int, QMatrix]] = [{} for _ in families]
    for n in x.support:
        un = units(n)
        steps = [(un.index(un.inv(u)), x.int_action(n, s), un.index(un.inv(h)))
                 for u, s, h in un.tree().edges]
        for fam, fam_mats in zip(families, mats):
            lam = [(i, v) for i, v in enumerate(fam[n]) if v]
            den_lam = lcm(*{v.denominator for _, v in lam})
            ints: list[tuple[int, dict[int, int]]] = [(0, {})] * len(un)
            ints[0] = den_lam, {i: v.numerator * (den_lam // v.denominator) for i, v in lam}
            for i, (den_a, a_rows), j in steps:
                den, row = ints[j]
                row = _int_vecmat(row.items(), a_rows)
                den *= den_a
                if den != 1:
                    g = gcd(den, *row.values())
                    if g != 1:
                        den //= g
                        row = {k: v // g for k, v in row.items()}
                ints[i] = den, row
            fam_mats[n] = QMatrix.from_row_dicts(
                [row if den == 1 else {j: Fraction(v, den) for j, v in row.items()}
                 for den, row in ints], x.dim(n))
    return HomSpace(x, reg, [ModuleMorphism(x, reg, m) for m in mats])


# ---------------------------------------------------------------------------
# derived inverse limits over the support poset
# ---------------------------------------------------------------------------

def _chains(support: SupportSet, length: int) -> list[tuple[int, ...]]:
    """Strictly increasing divisibility chains with the given element count."""
    levels = list(support)
    out: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...]) -> None:
        if len(chain) == length:
            out.append(chain)
            return
        last = chain[-1]
        for m in levels:
            if m > last and m % last == 0:
                extend(chain + (m,))

    for n in levels:
        extend((n,))
    return out


def nerve_complex(d: InverseSystem, max_k: int) -> tuple[CochainComplex, list[list[tuple[int, ...]]]]:
    """The cochain complex computing the derived limits of d.

    Degree k is a product over (k+1)-element chains of the value at the
    chain's bottom element.  The differential is the alternating sum of face
    maps; dropping the bottom element composes with the structure map down
    to it, every other face is a plain identity inclusion.  Each row is
    emitted sparsely; the composite structure maps come from
    ``InverseSystem.structure``, whose composite cache builds each (divisor,
    multiple) pair once per system.
    """
    all_chains = [_chains(d.support, k + 1) for k in range(max_k + 2)]
    layouts = [_offsets(chains, lambda ch: d.dim(ch[0])) for chains in all_chains[:-1]]

    diffs = []
    for k in range(max_k + 1):
        offs_k, dim_k = layouts[k]
        rows: list[dict[int, Entry]] = []
        for sigma in all_chains[k + 1]:
            d_sigma = d.dim(sigma[0])
            if not d_sigma:
                continue
            comp = d.structure(sigma[0], sigma[1]).data
            col0 = offs_k[sigma[1:]]
            # faces 1..k+1 keep the bottom element: signed identities
            faces = [(offs_k[sigma[:i] + sigma[i + 1:]], -1 if i % 2 else 1)
                     for i in range(1, len(sigma))]
            for a in range(d_sigma):
                row = {col0 + b: v for b, v in comp[a].items()}
                for c, sign in faces:
                    row[c + a] = sign
                rows.append(row)
        diffs.append(QMatrix.from_row_dicts(rows, dim_k))
    return CochainComplex(diffs), all_chains


def _estimate_nerve_entries(x: OutCycModule, max_k: int) -> int:
    """A bound on the nonzeros of ``nerve_complex(dual_system(x), max_k)``:
    the degree-k differential has dim x(s0) rows per (k+2)-element chain s,
    each with at most dim x(s1) entries from the face that drops s0 and one
    from each of the other k+1 faces."""
    return sum(x.dim(s[0]) * (x.dim(s[1]) + k + 1)
               for k in range(max_k + 1) for s in _chains(x.support, k + 2))


class DerivedLimit(NamedTuple):
    dims: list[int]
    witnesses: list[list[list[Entry]]]
    complex: CochainComplex


def lim_derived(d: InverseSystem, max_k: int) -> DerivedLimit:
    """Dimensions (and witness cocycles) of the derived limits up to max_k.

    The degree-k witnesses are the first cocycles of the reduced kernel
    basis of d_k that are independent modulo the coboundaries and earlier
    cocycles.  Each is a unit vector on the free columns, so cocycle j is
    passed over exactly when its free column is a pivot of the coboundaries
    restricted to the free columns in reverse order.  Degree 0 keeps all.

    d_0 is eliminated once: its reduced kernel is always computed, for the
    degree-0 witnesses, and its rank is read off it by rank-nullity as the
    column count less the free columns; the higher differentials are ranked
    by ``CochainComplex.cohomology_dims``.

    Degree zero agrees with the equalizer description of the plain limit;
    that equality and d-squared-is-zero are asserted by the test suite, not
    assumed.
    """
    if max_k < 0:
        raise ValueError("the top degree must be nonnegative")
    cx, _ = nerve_complex(d, max_k)
    d0 = cx.diffs[0]
    kernel0 = sparse_kernel(d0.data, d0.cols)
    dims = cx.cohomology_dims(max_k, {0: d0.cols - len(kernel0[1])})
    witnesses: list[list[list[Entry]]] = []
    for k, dk in enumerate(cx.diffs):
        if k == 0:
            cocycles, free = kernel0
        else:
            cocycles, free = sparse_kernel(dk.data, dk.cols) if dims[k] else ([], [])
        keep: Sequence[int] = range(len(free))
        if k and free:
            # the coboundaries as rows, on the free columns in reverse order
            prev = cx.diffs[k - 1]
            proj = QMatrix.from_row_dicts([prev.data[c] for c in reversed(free)],
                                          prev.cols).transpose()
            keep = [len(free) - 1 - t for t in reversed(sparse_kernel(proj.data, proj.cols)[1])]
        witnesses.append([[cocycles[j].get(i, _F0) for i in range(dk.cols)] for j in keep])
    return DerivedLimit(dims, witnesses, cx)


# ---------------------------------------------------------------------------
# sequential towers
# ---------------------------------------------------------------------------

class TowerReport(NamedTuple):
    lim_dim: int
    lim1_dim: int
    mittag_leffler: bool


def sequential_lim1(dims: Sequence[int], maps: Sequence[QMatrix]) -> TowerReport:
    """lim and lim^1 of a finite tower D_0 <- D_1 <- ... <- D_K.

    maps[k] is the structure map D_{k+1} -> D_k.  lim and lim^1 are the
    kernel and cokernel of the difference map (x_k) -> (x_k - d_k x_{k+1}),
    k < K, which is onto for every finite tower: given the differences, set
    x_K = 0 and solve downward.  So lim is D_K, a family being fixed by its
    top coordinate, and lim^1 is 0, whatever the maps (Weibel, An
    Introduction to Homological Algebra, 3.5).  The one thing left to
    compute is the Mittag-Leffler flag: whether every structure map is
    onto, the finite shadow of the image-stabilization condition.
    """
    if len(maps) != len(dims) - 1:
        raise ValueError("a tower with k+1 spaces needs k maps")
    for k, m in enumerate(maps):
        if m.shape() != (dims[k], dims[k + 1]):
            raise ValueError(f"map {k} has shape {m.shape()}, expected "
                             f"{(dims[k], dims[k + 1])}")
    ml = all(rank(m) == dims[k] for k, m in enumerate(maps))
    return TowerReport(lim_dim=dims[-1], lim1_dim=0, mittag_leffler=ml)


def tower_along_chain(d: InverseSystem, chain: Sequence[int]) -> tuple[list[int], list[QMatrix]]:
    """Extract the tower of a divisibility chain n_0 | n_1 | ... from a system.

    Each consecutive pair, or a lone level, is checked by
    ``SupportSet.chain`` before any dimension is read: a level outside the
    support, or one that does not divide the next, raises ValueError.
    """
    maps = [d.structure(a, b) for a, b in zip(chain, chain[1:])]
    if len(chain) == 1:
        d.support.chain(chain[0], chain[0])
    return [d.dim(n) for n in chain], maps


# ---------------------------------------------------------------------------
# Ext via minimal resolutions by the block projectives e P_n
# ---------------------------------------------------------------------------

Vec = dict[int, Entry]  # a sparse vector


class _SpanTracker:
    """Incremental span of rational vectors, kept as sparse integer rows.

    Each row is a ``{index: int}`` dict stored under its pivot, its lowest
    nonzero index, so the rows are in echelon form.  A vector, a sparse
    ``{index: Fraction}`` dict, has its denominators cleared and is reduced
    with the pivot rows it hits, lowest pivot first; an elimination can
    bring in a later pivot, which then joins the queue.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        rows = self.rows
        queue = [j for j in row if j in rows]
        heapify(queue)
        done = -1
        while queue:
            c = heappop(queue)
            if c == done or c not in row:
                continue
            done = c
            prow = rows[c]
            _cancel(row, prow, c)
            # pivot rows are zero left of their pivot, so anything new is > c
            for j in prow:
                if j in row and j in rows:
                    heappush(queue, j)
        return row

    def contains(self, vec: Vec) -> bool:
        return not self._reduce(_int_row((j, v) for j, v in vec.items() if v))

    def add(self, vec: Vec) -> bool:
        """Insert the vector; True when the span grew."""
        row = self._reduce(_int_row((j, v) for j, v in vec.items() if v))
        if not row:
            return False
        g = gcd(*row.values())
        if g > 1:
            row = {j: x // g for j, x in row.items()}
        self.rows[min(row)] = row
        return True


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """The coefficients of Phi_d, low degree first: x^d - 1 divided by
    Phi_k for every proper divisor k of d."""
    num = [-1] + [0] * (d - 1) + [1]
    for k in divisors(d)[:-1]:
        div = _cyclotomic(k)
        quot = [0] * (len(num) - len(div) + 1)
        for i in reversed(range(len(quot))):
            quot[i] = num[i + len(div) - 1]  # div is monic
            for j, c in enumerate(div):
                num[i + j] -= quot[i] * c
        num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _x_powers(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^j mod Phi_d for j < d + phi(d), each as its nonzero (t, int) pairs
    in the basis 1, x, ..., x^(phi(d) - 1); x^d is 1 there."""
    phi_d = _cyclotomic(d)
    cur = [1] + [0] * (len(phi_d) - 2)
    out = []
    for _ in range(d + len(cur)):
        out.append(tuple((t, c) for t, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [a - top * b for a, b in zip(cur, phi_d)]
    return tuple(out)


class _BlockSum:
    """A finite sum of block projectives e_i P_{n_i}, given by their blocks.

    e P_n vanishes below n, and at every multiple of n it is
    e Q[units(n)] = Q[x]/Phi_d, in the coordinates x^t (t < phi(d)), where
    x^t stands for e c^t with c the block's generator.  A unit u acts by
    multiplication by x^s(u mod n), an integer matrix; a restriction keeps
    every block and moves it to its offset at the larger level.  Vectors
    are sparse ``{index: value}`` dicts.
    """

    __slots__ = ("blocks", "support", "_layout", "_owner")

    def __init__(self, blocks: list[CharacterBlock], support: SupportSet):
        self.blocks = blocks
        self.support = support
        self._layout: dict[int, list[tuple[int, int]]] = {}
        self._owner: dict[int, list[tuple[int, int]]] = {}
        for m in support:
            lay, owner = [], []
            for i, blk in enumerate(blocks):
                if m % blk.level == 0:
                    lay.append((i, len(owner)))
                    owner.extend((i, t) for t in range(blk.degree))
            self._layout[m] = lay
            self._owner[m] = owner

    def key_of(self, m: int, r: int) -> tuple[int, int]:
        """The block key of coordinate r at level m."""
        return self.blocks[self._owner[m][r][0]].key

    def act(self, m: int, u: int, vec: Vec) -> Vec:
        owner = self._owner[m]
        out: Vec = {}
        for k, v in vec.items():
            i, t = owner[k]
            blk = self.blocks[i]
            s = blk.exponents[units(blk.level).index(reduce_unit(m, blk.level, u))]
            powers = _x_powers(blk.order)[t + s]
            base = k - t
            for r, c in powers:
                out[base + r] = out.get(base + r, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def res(self, n: int, m: int, vec: Vec) -> Vec:
        """Composite restriction from level n to level m (n | m)."""
        dst = dict(self._layout[m])
        owner = self._owner[n]
        return {dst[owner[k][0]] + owner[k][1]: v for k, v in vec.items()}

    def in_units_basis(self, m: int, vec: Vec) -> dict[int, Fraction]:
        """A vector at level m in the units basis of the whole representables
        P_{n_i}, block after block: x^t of block i becomes e_i c_i^t, whose
        coefficient at g is c_d(s(g) - t) / |units(n_i)|."""
        coords: dict[int, list[tuple[int, Entry]]] = {}
        for k, v in vec.items():
            i, t = self._owner[m][k]
            coords.setdefault(i, []).append((t, v))
        out: dict[int, Fraction] = {}
        base = 0
        for i, _ in self._layout[m]:
            blk = self.blocks[i]
            size = len(units(blk.level))
            if i in coords:
                d = blk.order
                ram = _ramanujan_row(d)
                vals = [sum(v * ram[(s - t) % d] for t, v in coords[i]) for s in range(d)]
                for g, s in enumerate(blk.exponents):
                    if vals[s]:
                        out[base + g] = Fraction(vals[s]) / size
            base += size
        return out


def _block_dims(m: OutCycModule, n: int) -> dict[tuple[int, int], int]:
    """dim e m(n) for every block e of units(n), from the characters:
    (1/|units(n)|) sum_g c_d(s(g)) tr m(g).  The character of a rational
    representation takes integer values."""
    un = units(n)
    traces = [m.action(n, g).trace() for g in un]
    if any(tr.denominator != 1 for tr in traces):
        raise ValueError(f"the action at level {n} has a trace that is not an integer")
    ints = [tr.numerator for tr in traces]
    out = {}
    for blk in character_blocks(n):
        total, rem = divmod(sum(w * tr for w, tr in zip(blk.weights(), ints)), len(un))
        if rem or total < 0:
            raise ValueError(f"block {blk.key} at level {n} has dimension "
                             f"{Fraction(total * len(un) + rem, len(un))}")
        out[blk.key] = total
    return out


def _apply_cols(cols: list[dict[int, Entry]], vec: Vec) -> Vec:
    """A matrix, given by the rows of its transpose, times a sparse vector."""
    out: Vec = {}
    for j, c in vec.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: v for i, v in out.items() if v}


class _ModuleStage:
    """The module being resolved, as the first stage to cover.

    The cover reads the columns of the actions of one level at a time: the
    transposed actions of the level it is at, kept until it asks for the
    next level, which releases them before it builds its own.
    """

    def __init__(self, x: OutCycModule):
        self.support = x.support
        self.x = x
        self._steps: dict[tuple[int, int], list[dict[int, Entry]]] = {}
        self._level: Optional[tuple[int, list[list[tuple[int, int, Entry]]]]] = None

    def _action_cols(self, n: int) -> list[list[tuple[int, int, Entry]]]:
        """Column j of every action at level n, as the (t, i, A(g_t)[i, j])
        of its nonzeros, t indexing units(n): the transposed actions, in
        unit order, then row order, shared by the level's blocks."""
        if self._level is None or self._level[0] != n:
            self._level = None
            cols: list[list[tuple[int, int, Entry]]] = [[] for _ in range(self.x.dim(n))]
            for t, g in enumerate(units(n)):
                for i, row in enumerate(self.x.action(n, g).data):
                    for j, v in row.items():
                        cols[j].append((t, i, v))
            self._level = (n, cols)
        return self._level[1]

    def dim(self, n: int) -> int:
        return self.x.dim(n)

    def block_dims(self, n: int) -> dict[tuple[int, int], int]:
        return _block_dims(self.x, n)

    def candidates(self, n: int, blk: CharacterBlock):
        """|units(n)| e u_j for the unit vectors u_j, j increasing, zeros
        skipped: column j of sum_g w_g A(g), built only when the cover asks
        for it, as sum_g w_g (column j of A(g)).  The cover usually stops
        after the first column of a block."""
        weights = blk.weights()
        for col in self._action_cols(n):
            acc: Vec = {}
            for t, i, v in col:
                w = weights[t]
                if w:
                    acc[i] = acc.get(i, 0) + w * v
            vec = {i: v for i, v in acc.items() if v}
            if vec:
                yield vec

    def images(self, n: int, blk: CharacterBlock, w: Vec) -> dict[int, list[Vec]]:
        """c^t w for t < phi(d), pushed up to every multiple m of n one
        covering step at a time: the last step of ``SupportSet.chain(n, m)``."""
        act = self.x.action(n, blk.generator).transpose().data
        vals = [w]
        for _ in range(blk.degree - 1):
            vals.append(_apply_cols(act, vals[-1]))
        out = {n: vals}
        for m in self.support.multiples_of(n):
            if m == n:
                continue
            below = self.support.chain(n, m)[-2]
            step = self._steps.get((below, m))
            if step is None:
                step = self._steps[(below, m)] = self.x.restriction_step(below, m).transpose().data
            out[m] = [_apply_cols(step, v) for v in out[below]]
        return out


class _KernelStage:
    """The kernel of a covering map out of a block sum.

    The inclusions are reduced kernel bases, stored as sparse vectors, so
    the coordinates of an ambient kernel vector are its entries at the free
    rows.  The blocks of the ambient sum are independent summands, so each
    reduced basis vector lies in the blocks of one key, the key of its free
    row: the e-part of the kernel is a coordinate subspace.
    """

    def __init__(self, free: _BlockSum, incl: dict[int, list[Vec]],
                 free_rows: dict[int, list[int]]):
        self.support = free.support
        self.free = free
        self.incl = incl
        self.free_pos = {m: {r: k for k, r in enumerate(rows)} for m, rows in free_rows.items()}
        self.keys = {m: [free.key_of(m, r) for r in rows] for m, rows in free_rows.items()}

    def dim(self, n: int) -> int:
        return len(self.incl[n])

    def block_dims(self, n: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for key in self.keys[n]:
            out[key] = out.get(key, 0) + 1
        return out

    def candidates(self, n: int, blk: CharacterBlock):
        for k, key in enumerate(self.keys[n]):
            if key == blk.key:
                yield {k: _F1}

    def classifier(self, n: int, w: Vec) -> dict[int, Fraction]:
        """The ambient vector of a candidate, in the units basis."""
        (k,) = w
        return self.free.in_units_basis(n, self.incl[n][k])

    def images(self, n: int, blk: CharacterBlock, w: Vec) -> dict[int, list[Vec]]:
        (k,) = w
        acted = [self.incl[n][k]]
        for _ in range(blk.degree - 1):
            acted.append(self.free.act(n, blk.generator, acted[-1]))
        out = {}
        for m in self.support.multiples_of(n):
            pos = self.free_pos[m]
            out[m] = [{pos[r]: v for r, v in self.free.res(n, m, a).items() if r in pos}
                      for a in acted]
        return out


class ResolutionStep(NamedTuple):
    gens: list[int]                          # generator levels, with multiplicity
    classifier_cols: list[dict[int, Fraction]]  # image of each generator in the
                                             # previous step, in the units basis
                                             # of its representables, sparse
    blocks: Optional[list[CharacterBlock]] = None  # generator i is blocks[i] P_n;
                                             # None: whole representables P_n


def _minimal_cover(stage: _ModuleStage | _KernelStage
                   ) -> tuple[list[tuple[int, CharacterBlock, Vec]], dict[int, list[list[Vec]]]]:
    """A minimal cover of a stage by block projectives.

    Walks the support upward.  At level n, for each block e, the images of
    the generators chosen so far span the part e L of the e-part e M(n)
    that lies below n; one generator e P_n is added on each candidate of
    e M(n) outside the span until it is full, and its images c^t w,
    t < phi(d), are independent modulo the span, because e M(n) is a
    vector space over e Q[units(n)] = Q(zeta_d).  Returns the generators as
    (level, block, vector) and, per level m, the images at m of each
    generator dividing m, in order: the columns of the covering map.
    """
    support = stage.support
    spans: dict[int, dict[tuple[int, int], _SpanTracker]] = {n: {} for n in support}
    gens: list[tuple[int, CharacterBlock, Vec]] = []
    images: dict[int, list[list[Vec]]] = {n: [] for n in support}
    for n in support:
        if sum(t.rank for t in spans[n].values()) == stage.dim(n):
            continue  # everything at n comes from below
        dims = stage.block_dims(n)
        for blk in character_blocks(n):
            want = dims.get(blk.key, 0)
            span = spans[n].setdefault(blk.key, _SpanTracker())
            if span.rank == want:
                continue
            for w in stage.candidates(n, blk):
                if span.contains(w):
                    continue
                gens.append((n, blk, w))
                for m, vals in stage.images(n, blk, w).items():
                    images[m].append(vals)
                    tracker = spans[m].setdefault(blk.key, _SpanTracker())
                    for v in vals:
                        tracker.add(v)
                if span.rank >= want:
                    break
            if span.rank != want:
                raise RuntimeError(f"covering failed for block {blk.key} at level {n}")
    return gens, images


def resolve_by_representables(x: OutCycModule, depth: int) -> list[ResolutionStep]:
    """The minimal resolution of x by block projectives e P_n, to the given depth.

    Step k records the generators of the k-th term, their levels in
    ``gens`` and their blocks in ``blocks``, and, for k >= 1, the
    classifying columns of the differential into the previous term.  Each
    stage is covered by ``_minimal_cover``, so the number of generators of
    each type in each degree is an invariant of x; steps past the end of
    the resolution are empty.  The next stage is the kernel of the covering
    map, level by level; a level whose map has exactly as many columns as
    the stage's dimension there has a zero kernel by rank-nullity, and is
    not eliminated.
    """
    if depth < 0:
        raise ValueError("the resolution depth must be nonnegative")
    support = x.support
    stage: _ModuleStage | _KernelStage = _ModuleStage(x)
    steps: list[ResolutionStep] = []
    for k in range(depth + 1):
        gens, images = _minimal_cover(stage)
        blocks = [blk for _, blk, _ in gens]
        classifier_cols = ([stage.classifier(n, w) for n, _, w in gens]
                           if isinstance(stage, _KernelStage) else [])
        steps.append(ResolutionStep([n for n, _, _ in gens], classifier_cols, blocks))
        if k == depth:
            break
        # the covering map's matrix at each level, by sparse rows in stage
        # coordinates; its columns are the block sum's basis at that level
        free = _BlockSum(blocks, support)
        incl: dict[int, list[Vec]] = {}
        free_rows: dict[int, list[int]] = {}
        for m in support:
            if sum(map(len, images[m])) == stage.dim(m):
                # _minimal_cover raises unless the map is onto at every
                # level, so with as many columns as rows its rank is
                # stage.dim(m) and, by rank-nullity, its kernel is zero
                incl[m], free_rows[m] = [], []
                continue
            rows: list[Vec] = [{} for _ in range(stage.dim(m))]
            col = 0
            for vals in images[m]:
                for v in vals:
                    for r, val in v.items():
                        rows[r][col] = val
                    col += 1
            incl[m], free_rows[m] = sparse_kernel(rows, col)
        stage = _KernelStage(free, incl, free_rows)
        if not any(incl.values()):
            # kernel vanished: the resolution ends; remaining terms are zero
            steps.extend(ResolutionStep([], [], []) for _ in range(k + 1, depth + 1))
            break
    return steps


def _hom_cochain(steps: list[ResolutionStep], y: OutCycModule) -> CochainComplex:
    """Apply morphisms-into-y to the resolution, in representable coordinates.

    The degree-k space is the sum of y's values at the k-th generator levels;
    the differential evaluates a morphism on the classifying columns of the
    next differential, using that a morphism out of a representable is the
    unit-orbit of a single value pushed up through the restrictions.  The
    block of generator j against generator i is R (sum_t z_t A_t): z the
    classifying column's entries in i's block, A_t y's action of the t-th
    unit and R y's restriction to j's level.  It is summed in integers over
    one common denominator and written straight into the sparse rows: an
    int where that denominator is 1, one Fraction otherwise.

    For a generator e P_n the space is Hom(e P_n, y) = e y(n), inside y(n).
    Its classifying columns satisfy z = e z, so each differential factors
    through the sum of the e y(n) and has the same rank there; the complex
    carries the dimensions of those sums, from ``_block_dims``.  The
    actions and restrictions are read as y's cached integer views.
    """
    diffs: list[QMatrix] = []
    for k in range(len(steps) - 1):
        gens_k = steps[k].gens
        gens_k1 = steps[k + 1].gens
        offs_k, dim_k = _offsets(range(len(gens_k)), lambda i: y.dim(gens_k[i]))
        offs_k1, dim_k1 = _offsets(range(len(gens_k1)), lambda j: y.dim(gens_k1[j]))
        # ambient index -> (generator, unit index), per generator level
        owners = {n_j: [(i, t) for i, n_i in enumerate(gens_k) if n_j % n_i == 0
                        for t in range(len(units(n_i)))]
                  for n_j in dict.fromkeys(gens_k1) if y.dim(n_j)}
        rows: list[dict[int, Entry]] = [{} for _ in range(dim_k1)]
        for j, (n_j, z) in enumerate(zip(gens_k1, steps[k + 1].classifier_cols)):
            # z lives in the k-th free sum at level n_j
            if not y.dim(n_j):
                continue
            owner = owners[n_j]
            blocks: dict[int, list[tuple[int, Fraction]]] = {}
            for pos, c in z.items():
                i, t = owner[pos]
                blocks.setdefault(i, []).append((t, c))
            r0 = offs_k1[j]
            for i, coeffs in blocks.items():
                n_i = gens_k[i]
                dy = y.dim(n_i)
                if not dy:
                    continue
                un = units(n_i).elements
                den_r, res_rows = y.int_restriction(n_i, n_j)
                den = 1
                for t, c in coeffs:
                    d = y.int_action(n_i, un[t])[0] * c.denominator
                    den = den * d // gcd(den, d)
                # weighted = den * sum_t z_t A_t, by sparse integer rows
                weighted: list[dict[int, int]] = [{} for _ in range(dy)]
                for t, c in coeffs:
                    den_a, a_rows = y.int_action(n_i, un[t])
                    scale = c.numerator * (den // (den_a * c.denominator))
                    for a, row in enumerate(a_rows):
                        acc = weighted[a]
                        for b, v in row:
                            acc[b] = acc.get(b, 0) + scale * v
                den *= den_r
                c0 = offs_k[i]
                for a, rrow in enumerate(res_rows):
                    out: dict[int, int] = {}
                    for s, rv in rrow:
                        for b, w in weighted[s].items():
                            out[b] = out.get(b, 0) + rv * w
                    row = rows[r0 + a]
                    for b, v in out.items():
                        if v:
                            row[c0 + b] = v if den == 1 else Fraction(v, den)
        diffs.append(QMatrix.from_row_dicts(rows, dim_k))
    if any(step.blocks is None for step in steps):
        return CochainComplex(diffs)
    block_dims = {n: _block_dims(y, n)
                  for n in dict.fromkeys(n for step in steps for n in step.gens)}
    return CochainComplex(diffs, [sum(block_dims[n][blk.key]
                                      for n, blk in zip(step.gens, step.blocks))
                                  for step in steps])


def ext_via_resolution(x: OutCycModule, y: OutCycModule, max_k: int) -> list[int]:
    """Ext dimensions in degrees 0..max_k, from a representable resolution.

    Degree zero is the morphism space, and must agree with hom_direct; the
    test suite asserts that, along with agreement with derived limits when
    the target is the regular module.
    """
    if x.support != y.support:
        raise ValueError("support mismatch")
    if max_k < 0:
        raise ValueError("the top degree must be nonnegative")
    steps = resolve_by_representables(x, max_k + 1)
    cx = _hom_cochain(steps, y)
    return cx.cohomology_dims(max_k)
