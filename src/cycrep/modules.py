"""Truncated modules over the cyclic-group site.

An object assigns to every level n of a divisor-closed support a rational
vector space with an action of units(n), and to every covering pair
(n, n*q) an equivariant restriction matrix going up the divisibility
order.  Restrictions are stored on covering pairs only; longer ones are
composites, and path independence of the composites is a validation
invariant rather than extra data.

Morphisms are levelwise matrices that are equivariant and commute with the
restrictions.  Levelwise kernels, images and cokernels inherit module
structures, which is what makes resolutions and Ext computations possible.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from .cyclic_site import (
    SupportSet,
    reduce_unit,
    totient,
    units,
)
from .linalg import (IntView, QMatrix, _int_matrix, _int_products_equal, column_space_basis,
                     kernel_basis, cokernel, solve_matrix)


class OutCycModule:
    """Per-level unit-group representations linked by restriction matrices.

    Every module stores its matrices: one action table per level and one
    restriction matrix per covering pair.  A level table may hold only 1
    and the generators of units(n): ``action`` completes it on the first
    request for another unit (see there).  The integer views of the
    matrices (``linalg._int_matrix``), which ``hom_direct``, the Hom
    cochains and ``ModuleMorphism.validate`` compute with, are built once
    per module and kept in its view cache; callers must not modify a view.
    """

    __slots__ = ("support", "dims", "_actions", "_restrictions", "name", "_views")

    def __init__(
        self,
        support: SupportSet,
        dims: dict[int, int],
        actions: dict[int, dict[int, QMatrix]],
        restrictions: dict[tuple[int, int], QMatrix],
        name: str = "",
    ):
        self.support = support
        self.dims = {n: int(dims.get(n, 0)) for n in support}
        self._actions = actions
        self._restrictions = restrictions
        self.name = name
        self._views: dict[tuple[int, int, bool], IntView] = {}

    def dim(self, n: int) -> int:
        return self.dims[n]

    def action(self, n: int, l: int) -> QMatrix:
        """The matrix of the unit l at level n.

        A stored table that lacks a unit of n is completed once, in place,
        from 1 and the generators along the edges (u, s, h) of
        ``UnitsGroup.tree``: table[u] = table[s] @ table[h] wherever h is
        not 1, with the identity at 1 when 1 is not stored.  On a valid
        module that is its action at every unit, since A(u) = A(s) A(h).  A
        table whose generators all hold its identity object at 1 is filled
        with that object instead, so trivial actions keep sharing it.
        """
        table = self._actions[n]
        if l not in table and l in units(n):
            un, ident = units(n), QMatrix.identity(self.dims[n])
            one = table.setdefault(1, ident)
            shared = one == ident and all(table.get(g) is one for g in un.generators())
            for u, s, h in un.tree().edges:
                if h != 1:
                    table[u] = one if shared else table[s] @ table[h]
        return table[l]

    def restriction_step(self, n: int, m: int) -> QMatrix:
        """Restriction matrix for a covering pair (n, m) with m = n * prime."""
        return self._restrictions[(n, m)]

    def int_action(self, n: int, l: int) -> IntView:
        """The integer view of ``action(n, l)``, from the view cache."""
        view = self._views.get((n, l, True))
        if view is None:
            view = self._views[(n, l, True)] = _int_matrix(self.action(n, l))
        return view

    def int_restriction(self, n: int, m: int) -> IntView:
        """The integer view of the restriction from n up to m: the step of a
        covering pair, else ``restriction_matrix(self, m, n)``, from the
        view cache."""
        view = self._views.get((n, m, False))
        if view is None:
            step = self._restrictions.get((n, m))
            view = self._views[(n, m, False)] = _int_matrix(
                restriction_matrix(self, m, n) if step is None else step)
        return view

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutCycModule):
            return NotImplemented
        if self.support != other.support or self.dims != other.dims:
            return False
        for n in self.support:
            for l in units(n):
                if self.action(n, l) != other.action(n, l):
                    return False
        for n, m in self.support.covering_pairs():
            if self.restriction_step(n, m) != other.restriction_step(n, m):
                return False
        return True

    def __repr__(self) -> str:
        tag = self.name or "module"
        dims = ", ".join(f"{n}:{d}" for n, d in self.dims.items())
        return f"OutCycModule<{tag}; {dims}>"

    def validate(self) -> list[str]:
        return validate(self)


def restriction_matrix(x: OutCycModule, m: int, n: int) -> QMatrix:
    """Composite restriction from level n up to level m (n | m, both in S).

    Composes the covering steps along ``SupportSet.chain(n, m)``, which
    raises ValueError for levels outside the support or n not dividing m;
    path independence makes any other path agree.
    """
    levels = x.support.chain(n, m)
    mat = QMatrix.identity(x.dim(n))
    for a, b in zip(levels, levels[1:]):
        mat = x.restriction_step(a, b) @ mat
    return mat


def validate_actions(x: OutCycModule, n: int) -> list[str]:
    """Level-n invariants: identity at 1, shapes, and multiplicativity.

    Multiplicativity A(a) A(b) == A(a*b) is checked on the edges (u, s, h)
    of ``UnitsGroup.tree`` that do not leave 1, as A(s) A(h) == A(u), and
    on its relations: phi(n) - 1 + r(r-1)/2 products for r generators,
    instead of phi(n)^2.  That decides the full table.  Write M_i for
    A(s_i), a_i for the order of s_i.  The tree edges make A at a normal
    form s_r^e_r ... s_1^e_1 the product M_r^e_r ... M_1^e_1.  With
    A(1) = I, a power relation then says M_i^a_i = I, and a commutator
    that M_i M_j = M_j M_i.  These present the direct product of the
    cyclic groups <s_i>, which is units(n), so by von Dyck's theorem
    s_i -> M_i extends to a homomorphism, which agrees with A at every
    normal form, that is at every unit.  On a module that is not
    multiplicative the list of violations can be shorter than the full
    table's, but never empty.
    """
    out: list[str] = []
    d = x.dim(n)
    un = units(n)
    if x.action(n, 1) != QMatrix.identity(d):
        out.append(f"action(1) is not the identity at level {n}")
    mats = {l: x.action(n, l) for l in un}
    for l, a in mats.items():
        if a.shape() != (d, d):
            out.append(f"action({l}) at level {n} has shape {a.shape()}, expected {(d, d)}")
    tree = un.tree()
    products = [(s, h, u) for u, s, h in tree.edges if h != 1] + list(tree.relations)
    for a, b, c in products:
        if mats[a] @ mats[b] != mats[c]:
            out.append(f"action not multiplicative at level {n}: {a} * {b}")
    return out


def validate_squares(x: OutCycModule) -> list[str]:
    """Shapes of the restrictions, and their equivariance against the
    generators of the unit group upstairs.

    For a covering pair (n, m) with restriction R, A_m(u) R == R A_n(u mod n)
    for every generator u of units(m) implies it for every unit: both
    actions are multiplicative (``validate_actions`` checks that at every
    level) and reduction mod n is a homomorphism, so the equation passes
    from two units to their product.
    """
    out: list[str] = []
    for n, m in x.support.covering_pairs():
        res = x.restriction_step(n, m)
        if res.shape() != (x.dim(m), x.dim(n)):
            out.append(f"restriction {n}->{m} has shape {res.shape()}, "
                       f"expected {(x.dim(m), x.dim(n))}")
            continue
        for phi in units(m).generators():
            phibar = reduce_unit(m, n, phi)
            if x.action(m, phi) @ res != res @ x.action(n, phibar):
                out.append(f"equivariance fails on square {n}->{m} at unit {phi}")
    return out


def validate_paths(x: OutCycModule) -> list[str]:
    """Composites along different prime orders must agree on every square
    of ``SupportSet.squares``."""
    out: list[str] = []
    for n, q, r in x.support.squares():
        top = n * q * r
        left = x.restriction_step(n * q, top) @ x.restriction_step(n, n * q)
        right = x.restriction_step(n * r, top) @ x.restriction_step(n, n * r)
        if left != right:
            out.append(f"path independence fails: {n} -> {top} via {q} vs {r}")
    return out


def validate(x: OutCycModule) -> list[str]:
    """All structural invariants; violations come back as data.

    Every invariant is decided exactly: multiplicativity along a Cayley
    spanning tree of each unit group and on its relations, equivariance on
    its generators, each equivalent to checking every unit (see
    ``validate_actions`` and ``validate_squares``).
    """
    out: list[str] = []
    for n in x.support:
        out.extend(validate_actions(x, n))
    out.extend(validate_squares(x))
    out.extend(validate_paths(x))
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def regular_action(n: int, l: int) -> QMatrix:
    """Translation by the unit l on the basis indexed by units(n)."""
    un = units(n)
    a = QMatrix.zeros(len(un), len(un))
    for j in un:
        a[un.index(un.mul(l, j)), un.index(j)] = 1
    return a


def regular_restriction(n: int, m: int) -> QMatrix:
    """Summation over the fibers of units(m) -> units(n): the basis unit j
    goes to the sum of the basis units reducing to j."""
    un, um = units(n), units(m)
    r = QMatrix.zeros(len(um), len(un))
    for jt in um:
        r[um.index(jt), un.index(reduce_unit(m, n, jt))] = 1
    return r


def regular_module(support: SupportSet) -> OutCycModule:
    """The regular unit-group representation at every level.

    Level n has basis indexed by units(n) with the translation action; the
    restriction for a covering pair sends a basis unit j to the sum of the
    basis units reducing to j, i.e. summation over the fibers.
    """
    dims = {n: totient(n) for n in support}
    actions = {n: {l: regular_action(n, l) for l in units(n)} for n in support}
    restrictions = {(n, m): regular_restriction(n, m) for n, m in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions, name="regular")


def free_module(n: int, support: SupportSet) -> OutCycModule:
    """The representable module at level n.

    Levels m divisible by n carry the span of the surjections onto the
    level-n cyclic group, identified with units(n) by where the chosen
    generator goes; other levels vanish.  Morphisms out of it correspond
    to elements of the target at level n.
    """
    if n not in support:
        raise ValueError(f"{n} not in support")
    d = totient(n)
    dims = {m: (d if m % n == 0 else 0) for m in support}
    actions = {m: {l: (QMatrix.zeros(0, 0) if m % n else regular_action(n, reduce_unit(m, n, l)))
                   for l in units(m)} for m in support}
    restrictions = {(a, b): QMatrix.identity(d) if a % n == 0 else QMatrix.zeros(dims[b], dims[a])
                    for a, b in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions, name=f"free:{n}")


def semifree_module(n: int, support: SupportSet) -> OutCycModule:
    """One copy of Q at every level divisible by n, identity restrictions.

    Co-represents the unit-group invariants of the level-n value.  When the
    support contains no multiple of n this is simply the zero module.  The
    action is trivial: 1 and the generators of each level share one
    identity matrix object, and ``OutCycModule.action`` completes the level
    with that object; like every ``QMatrix``, it must never be mutated.
    """
    if n < 1:
        raise ValueError("level must be positive")
    dims = {m: (1 if m % n == 0 else 0) for m in support}
    actions = {m: dict.fromkeys((1, *units(m).generators()), QMatrix.identity(dims[m]))
               for m in support}
    restrictions = {
        (a, b): (QMatrix.identity(1) if a % n == 0 else QMatrix.zeros(dims[b], dims[a]))
        for a, b in support.covering_pairs()
    }
    return OutCycModule(support, dims, actions, restrictions, name=f"semifree:{n}")


def atomic_module(n: int, d: int, support: SupportSet) -> OutCycModule:
    """A d-dimensional trivial representation at level n only, zero elsewhere.

    As in ``semifree_module``, 1 and the generators of each level share one
    identity matrix object, which completes the level; it must never be
    mutated in place.
    """
    if n not in support:
        raise ValueError(f"{n} not in support")
    if d < 0:
        raise ValueError(f"an atom's dimension must be nonnegative, got d = {d}")
    dims = {m: (d if m == n else 0) for m in support}
    actions = {m: dict.fromkeys((1, *units(m).generators()), QMatrix.identity(dims[m]))
               for m in support}
    restrictions = {(a, b): QMatrix.zeros(dims[b], dims[a])
                    for a, b in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions, name=f"atomic:{n}:{d}")


def zero_module(support: SupportSet) -> OutCycModule:
    """Zero at every level; 1 and the generators share one 0x0 matrix."""
    return OutCycModule(
        support,
        {n: 0 for n in support},
        {n: dict.fromkeys((1, *units(n).generators()), QMatrix.zeros(0, 0)) for n in support},
        {pair: QMatrix.zeros(0, 0) for pair in support.covering_pairs()},
        name="zero",
    )


def direct_sum(mods: Sequence[OutCycModule], name: str = "") -> OutCycModule:
    """Levelwise block-diagonal sum; summand order fixes the basis order.

    The sum stores the actions of 1 and the generators of each units(n)
    only; ``OutCycModule.action`` completes the other units on request, and
    the block-diagonal of products is the product of block-diagonals.  Each
    block-diagonal matrix is built once per distinct tuple of summand
    matrix objects, so the stored units of a level whose summands share
    their matrices (trivial actions) share one result object as well, and
    the completion keeps sharing it; no ``QMatrix`` may be mutated in place.
    The memo keys on ``id``s, which stay unique: the summands store them.
    """
    if not mods:
        raise ValueError("empty direct sum; pass zero_module instead")
    support = mods[0].support
    if any(m.support != support for m in mods):
        raise ValueError("summands live over different supports")
    dims = {n: sum(m.dim(n) for m in mods) for n in support}

    def block_diag(mats: list[QMatrix]) -> QMatrix:
        data = []
        co = 0
        for m in mats:
            data.extend({co + j: v for j, v in r.items()} for r in m.data)
            co += m.cols
        return QMatrix.from_row_dicts(data, co)

    memo: dict[tuple[int, ...], QMatrix] = {}

    def shared_block_diag(mats: list[QMatrix]) -> QMatrix:
        key = tuple(map(id, mats))
        if key not in memo:
            memo[key] = block_diag(mats)
        return memo[key]

    actions = {n: {l: shared_block_diag([m.action(n, l) for m in mods])
                   for l in (1, *units(n).generators())} for n in support}
    restrictions = {pair: shared_block_diag([m.restriction_step(*pair) for m in mods])
                    for pair in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions,
                        name=name or "(+)".join(m.name or "?" for m in mods))


def conjugate_module(x: OutCycModule, transforms: dict[int, QMatrix],
                     name: str = "") -> OutCycModule:
    """Base change by an invertible matrix at every level.

    Produces an isomorphic module with scrambled coordinates; useful for
    generating seeded valid test modules that are not visibly structured.
    The actions are conjugated at 1 and the generators of each units(n)
    only; ``OutCycModule.action`` completes the rest on request, exactly,
    since conjugation by T is multiplicative.
    """
    inv: dict[int, QMatrix] = {}
    for n in x.support:
        t = transforms[n]
        ti = solve_matrix(t, QMatrix.identity(t.rows))
        if ti is None or t.rows != t.cols or t.rows != x.dim(n):
            raise ValueError(f"transform at level {n} is not invertible of the right size")
        inv[n] = ti
    actions = {n: {l: transforms[n] @ x.action(n, l) @ inv[n]
                   for l in (1, *units(n).generators())} for n in x.support}
    restrictions = {(a, b): transforms[b] @ x.restriction_step(a, b) @ inv[a]
                    for a, b in x.support.covering_pairs()}
    return OutCycModule(x.support, dict(x.dims), actions, restrictions,
                        name=name or f"conj({x.name})")


def random_module(support: SupportSet, seed: int) -> OutCycModule:
    """A seeded pseudo-random valid module: a sum of structured pieces
    conjugated by random unimodular base changes at every level."""
    rng = random.Random(seed)
    levels = list(support)
    pieces: list[OutCycModule] = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["atomic", "semifree", "free"])
        n = rng.choice(levels)
        if kind == "atomic":
            pieces.append(atomic_module(n, rng.randint(1, 2), support))
        elif kind == "semifree":
            pieces.append(semifree_module(n, support))
        else:
            small = [m for m in levels if totient(m) <= 4]
            pieces.append(free_module(rng.choice(small or [1]), support))
    x = direct_sum(pieces) if len(pieces) > 1 else pieces[0]

    transforms: dict[int, QMatrix] = {}
    for n in support:
        d = x.dim(n)
        lower = QMatrix.identity(d)
        upper = QMatrix.identity(d)
        for i in range(d):
            for j in range(i):
                lower[i, j] = rng.choice([-1, 0, 0, 1])
                upper[j, i] = rng.choice([-1, 0, 0, 1])
        transforms[n] = lower @ upper
    return conjugate_module(x, transforms, name=f"random:{seed}")


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class ModuleMorphism:
    """Levelwise matrices source -> target, equivariant and natural."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: OutCycModule, target: OutCycModule,
                 mats: dict[int, QMatrix]):
        if source.support != target.support:
            raise ValueError("source and target live over different supports")
        self.source = source
        self.target = target
        self.mats = {n: mats[n] for n in source.support}

    def __getitem__(self, n: int) -> QMatrix:
        return self.mats[n]

    def validate(self) -> list[str]:
        """Shapes, equivariance and naturality; violations come back as data.

        Equivariance is checked against the generators of each unit group
        only.  For valid source and target modules, whose actions are
        multiplicative, f A_x(g) == A_y(g) f at two units gives it at their
        product, so this is equivalent to checking every unit.  Modules read
        from files are validated before use (``load_module``), and every
        constructor in the package builds valid modules.

        Both sides of every square are compared in integers, on the integer
        views of the level matrices and of the modules' cached views: each
        side's product is scaled by the other side's denominators.
        """
        x, y = self.source, self.target
        out = []
        views = {}
        for n in x.support:
            f = self.mats[n]
            if f.shape() != (y.dim(n), x.dim(n)):
                out.append(f"level {n} matrix has shape {f.shape()}, expected "
                           f"{(y.dim(n), x.dim(n))}")
                continue
            fv = views[n] = _int_matrix(f)
            for l in units(n).generators():
                if not _int_products_equal(fv, x.int_action(n, l), y.int_action(n, l), fv):
                    out.append(f"equivariance fails at level {n}, unit {l}")
        for n, m in x.support.covering_pairs():
            if n in views and m in views and not _int_products_equal(
                    y.int_restriction(n, m), views[n], views[m], x.int_restriction(n, m)):
                out.append(f"naturality fails on restriction {n}->{m}")
        return out

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.mats.values())

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self after other (matrix order: self @ other)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ValueError("composition mismatch")
        return ModuleMorphism(other.source, self.target,
                              {n: self.mats[n] @ other.mats[n] for n in self.mats})

    def stacked_vector(self) -> list:
        """All level matrices flattened row-major, levels in support order.

        This is the coefficient list used to compare morphisms as vectors.
        """
        out = []
        for n in self.source.support:
            for row in self.mats[n].to_rows():
                out.extend(row)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleMorphism):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self) -> str:
        return f"ModuleMorphism<{self.source.name or '?'} -> {self.target.name or '?'}>"


def identity_morphism(x: OutCycModule) -> ModuleMorphism:
    return ModuleMorphism(x, x, {n: QMatrix.identity(x.dim(n)) for n in x.support})


def zero_morphism(x: OutCycModule, y: OutCycModule) -> ModuleMorphism:
    return ModuleMorphism(x, y, {n: QMatrix.zeros(y.dim(n), x.dim(n)) for n in x.support})


class MorphismFactorization(NamedTuple):
    kernel: OutCycModule
    kernel_inclusion: ModuleMorphism
    image: OutCycModule
    image_inclusion: ModuleMorphism
    source_to_image: ModuleMorphism
    cokernel: OutCycModule
    cokernel_projection: ModuleMorphism


def _induced_on_subspace(basis_n: QMatrix, basis_m: QMatrix, carrier: QMatrix) -> QMatrix:
    """The unique matrix X with basis_m @ X == carrier @ basis_n."""
    x = solve_matrix(basis_m, carrier @ basis_n)
    if x is None:
        raise ValueError("carrier does not preserve the subspace")
    return x


def _induced_module(ambient: OutCycModule, dims: dict[int, int],
                    induced: Callable[[int, int, QMatrix], QMatrix], name: str) -> OutCycModule:
    """The module on ``dims`` whose structure ``induced(a, b, carrier)``
    solves from the ambient matrix carrier, level a to level b: on every
    covering pair, and with a == b at the generators of units(a) only.

    Each level table stores those and 1; ``OutCycModule.action`` completes
    any other unit on request by the products A(s*h) = A(s) A(h) along
    ``UnitsGroup.tree``.  The completion is exact and gives the matrices a
    solve at every unit would: from B X(g) = A(g) B and B X(l) = A(l) B
    follows B X(g) X(l) = A(g*l) B, and that solution is unique (dually on
    a quotient).  Nothing is left unchecked either: the group is finite, so
    every unit is a product of generators, and a subspace the generators
    preserve is preserved by every unit.
    """
    support = ambient.support
    actions = {n: {1: QMatrix.identity(dims[n]),
                   **{g: induced(n, n, ambient.action(n, g)) for g in units(n).generators()}}
               for n in support}
    restrictions = {(a, b): induced(a, b, ambient.restriction_step(a, b))
                    for a, b in support.covering_pairs()}
    return OutCycModule(support, dims, actions, restrictions, name=name)


def cokernel_projection(f: ModuleMorphism) -> ModuleMorphism:
    """The projection of f's target onto the levelwise cokernel of f.

    The cokernel module is the projection's target.  Under the
    precondition of ``morphism_factor`` the actions and restrictions of
    f's target descend to it, each as the unique solution of its commuting
    square (the projections have independent rows), by ``_induced_module``.
    """
    src, tgt = f.source, f.target
    cok = {n: cokernel(f.mats[n]) for n in src.support}
    rows = {n: p.transpose() for n, (p, _) in cok.items()}
    # X P_a == P_b C, transposed into a subspace solve on the projections' rows
    cokernel_mod = _induced_module(
        tgt, {n: d for n, (_, d) in cok.items()},
        lambda a, b, c: _induced_on_subspace(rows[b], rows[a], c.transpose()).transpose(),
        f"coker({src.name}->{tgt.name})")
    return ModuleMorphism(tgt, cokernel_mod, {n: p for n, (p, _) in cok.items()})


def morphism_factor(f: ModuleMorphism) -> MorphismFactorization:
    """Levelwise kernel, image and cokernel with their induced structures.

    Precondition: f is a valid morphism between valid modules, as every
    constructor and ``load_module`` produce.  Then the actions preserve the
    kernel and the image, naturality makes the restrictions carry them, and
    both descend to the cokernel; each induced matrix is the unique
    solution of its commuting square (the bases have independent columns,
    the projections independent rows), by ``_induced_module``.  The
    cokernel and its projection are ``cokernel_projection``'s.
    """
    src, tgt = f.source, f.target
    support = src.support

    ker_basis = {n: kernel_basis(f.mats[n]) for n in support}
    img_data = {n: column_space_basis(f.mats[n]) for n in support}

    def sub_module(bases: dict[int, QMatrix], ambient: OutCycModule, name: str) -> OutCycModule:
        return _induced_module(ambient, {n: bases[n].cols for n in support},
                               lambda a, b, c: _induced_on_subspace(bases[a], bases[b], c), name)

    kernel_mod = sub_module(ker_basis, src, f"ker({src.name}->{tgt.name})")
    image_mod = sub_module({n: img_data[n][0] for n in support}, tgt,
                           f"im({src.name}->{tgt.name})")

    projection = cokernel_projection(f)

    src_to_img = {}
    for n in support:
        x = solve_matrix(img_data[n][0], f.mats[n])
        assert x is not None
        src_to_img[n] = x

    return MorphismFactorization(
        kernel=kernel_mod,
        kernel_inclusion=ModuleMorphism(kernel_mod, src, ker_basis),
        image=image_mod,
        image_inclusion=ModuleMorphism(image_mod, tgt, {n: img_data[n][0] for n in support}),
        source_to_image=ModuleMorphism(src, image_mod, src_to_img),
        cokernel=projection.target,
        cokernel_projection=projection,
    )


# ---------------------------------------------------------------------------
# inverse systems
# ---------------------------------------------------------------------------

class InverseSystem:
    """Rational vector spaces over the support with maps from multiples to
    divisors, one matrix per covering pair."""

    __slots__ = ("support", "dims", "maps", "_composites")

    def __init__(self, support: SupportSet, dims: dict[int, int],
                 maps: dict[tuple[int, int], QMatrix]):
        self.support = support
        self.dims = {n: int(dims.get(n, 0)) for n in support}
        self.maps = dict(maps)
        self._composites: dict[tuple[int, int], QMatrix] = {}
        covering = set(support.covering_pairs())
        for pair in self.maps:
            if pair not in covering:
                raise ValueError(f"structure map {pair} is not a covering pair of the support")
        missing = sorted(covering - self.maps.keys())
        if missing:
            raise ValueError(f"missing structure map for covering pair {missing[0]}")
        for (n, m), mat in self.maps.items():
            if mat.shape() != (self.dims[n], self.dims[m]):
                raise ValueError(f"structure map {m}->{n} has shape {mat.shape()}, "
                                 f"expected {(self.dims[n], self.dims[m])}")

    def dim(self, n: int) -> int:
        return self.dims[n]

    def structure_step(self, n: int, m: int) -> QMatrix:
        """The map D(m) -> D(n) for a covering pair (n, m)."""
        return self.maps[(n, m)]

    def structure(self, n: int, m: int) -> QMatrix:
        """Composite map D(m) -> D(n) for any n | m in the support.

        The first step of ``SupportSet.chain(n, m)``, which raises ValueError
        for levels outside the support or n not dividing m, after the
        composite along the rest of that chain; path independence makes any
        other path agree.  Each composite is built once and kept in the
        system's composite cache, so a second call returns the same matrix;
        callers must not modify it.
        """
        mat = self._composites.get((n, m))
        if mat is None:
            levels = self.support.chain(n, m)
            if len(levels) == 1:
                mat = QMatrix.identity(self.dims[n])
            else:
                mat = self.maps[(n, levels[1])]
                if levels[1] != m:
                    mat = mat @ self.structure(levels[1], m)
            self._composites[(n, m)] = mat
        return mat

    def validate(self) -> list[str]:
        """Path independence on every square of ``SupportSet.squares``."""
        out = []
        for n, q, r in self.support.squares():
            top = n * q * r
            left = self.maps[(n, n * q)] @ self.maps[(n * q, top)]
            right = self.maps[(n, n * r)] @ self.maps[(n * r, top)]
            if left != right:
                out.append(f"path independence fails: {top} -> {n} via {q} vs {r}")
        return out


def dual_system(x: OutCycModule) -> InverseSystem:
    """Levelwise linear duals with transposed restrictions, actions dropped."""
    maps = {(n, m): x.restriction_step(n, m).transpose()
            for n, m in x.support.covering_pairs()}
    return InverseSystem(x.support, dict(x.dims), maps)
