"""The benchmark's workloads and the oracles that check every result.

Each workload builds its input modules in ``setup`` (timed as set-up) and
then runs its operations through ``Recorder.op``.  An oracle is a theorem or
the other computational route, never the code path that produced the
result: the totient, the divisor lists and the expected dimensions below are
computed here from first principles.

Sizes are smaller than the README's divisors(360)/divisors(2520): a run
takes ``--seconds`` seconds and reports medians over several fresh-process
passes, so one pass has to take seconds, not tens of seconds.  Each size was
chosen so that the layer the workload exists for stays the largest share of
its pass (see NOTES.md for the traced breakdown).
"""

from __future__ import annotations

import json
from math import gcd


def phi(n: int) -> int:
    """Euler's totient by counting, independent of cycrep.totient."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def divisor_list(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class Recorder:
    """Runs operations, counting those that raise or fail their oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, thunk, oracle):
        """Run ``thunk``; ``oracle(result)`` returns None or a problem."""
        self.attempted += 1
        try:
            result = thunk()
        except Exception as exc:  # an operation that raises is a failed operation
            self.failures.append(f"{name}: raised {exc!r}")
            return None
        try:
            problem = oracle(result)
        except Exception as exc:  # so is one whose result the oracle cannot read
            problem = f"oracle could not read the result: {exc!r}"
        if problem:
            self.failures.append(f"{name}: {problem}")
        return result


def _expect(ok: bool, problem: str):
    return None if ok else problem


# ---------------------------------------------------------------------------
# ext_two_ways: exact elimination (rank, then kernel/solve/column space)
# ---------------------------------------------------------------------------

EXT_SUPPORT = 132          # 2^2*3*11: four cochain matrices up to 490x326
EXT_RANDOM_SUPPORT = 36    # random sources stay small, see below
EXT_RANDOM_COUNT = 3
EXT_MAX_DEGREE = 2


def ext_setup(cy, seed: int) -> dict:
    # The random sources live over divisors(36): over divisors(132) the cost
    # of three random modules ranges over 15x between seeds, which would make
    # the seed, not the code, set the spread of wall_s.
    support = cy.support_of_divisors(EXT_SUPPORT)
    small = cy.support_of_divisors(EXT_RANDOM_SUPPORT)
    return {
        "regular": cy.regular_module(support),
        "small_regular": cy.regular_module(small),
        "random": [cy.random_module(small, seed + i) for i in range(EXT_RANDOM_COUNT)],
    }


def ext_run(cy, inputs: dict, rec: Recorder) -> None:
    k = EXT_MAX_DEGREE
    reg = inputs["regular"]
    # Hom(regular, regular) is phi(top) and higher Ext into the regular module
    # vanishes on a directed support (the support has a top element).
    expected = [phi(EXT_SUPPORT)] + [0] * k
    ext = rec.op("ext_via_resolution(regular, regular)",
                 lambda: cy.ext_via_resolution(reg, reg, k),
                 lambda d: _expect(d == expected, f"dims {d}, expected {expected}"))
    rec.op("lim_derived(dual_system(regular))",
           lambda: cy.lim_derived(cy.dual_system(reg), k).dims,
           lambda d: _expect(d == expected and d == ext,
                             f"dims {d}, resolution route {ext}, expected {expected}"))
    small_reg = inputs["small_regular"]
    for x in inputs["random"]:
        ext_x = rec.op(f"ext_via_resolution({x.name}, regular)",
                       lambda: cy.ext_via_resolution(x, small_reg, k),
                       lambda d: _expect(len(d) == k + 1 and d[1:] == [0] * k,
                                         f"higher Ext {d[1:]} does not vanish"))
        rec.op(f"lim_derived(dual_system({x.name}))",
               lambda: cy.lim_derived(cy.dual_system(x), k).dims,
               lambda d: _expect(d == ext_x, f"dims {d}, resolution route {ext_x}"))


# ---------------------------------------------------------------------------
# structure_maps: dense per-unit matrices, small dense solves, resolution
# ---------------------------------------------------------------------------

STRUCT_SUPPORT = 90        # tau_ru_module, validate, hom_via_limit(regular)
STRUCT_HOM_SUPPORT = 30     # hom_direct(tauRU, regular): Kronecker averaging
STRUCT_RES_ARGS = ["resolution", "--support", "divisors:1155", "--primes",
                   "3,5,7,11", "--max-degree", "2"]


def struct_setup(cy, seed: int) -> dict:
    # Every input is fixed; the seed only labels the run.
    big = cy.support_of_divisors(STRUCT_SUPPORT)
    small = cy.support_of_divisors(STRUCT_HOM_SUPPORT)
    return {
        "support": big,
        "regular": cy.regular_module(big),
        "small_regular": cy.regular_module(small),
        "small_tau": cy.tau_ru_module(small),
    }


def struct_run(cy, inputs: dict, rec: Recorder) -> None:
    support = inputs["support"]
    want_dims = {n: phi(n) for n in divisor_list(STRUCT_SUPPORT)}
    rec.op("tau_ru_module", lambda: cy.tau_ru_module(support),
           lambda x: _expect({n: x.dim(n) for n in x.support} == want_dims,
                             "quotient dimensions differ from the totient"))
    reg = inputs["regular"]
    rec.op("validate(regular)", lambda: cy.validate(reg),
           lambda v: _expect(v == [], f"{len(v)} violations"))
    top = phi(STRUCT_SUPPORT)
    rec.op("hom_via_limit(regular)", lambda: cy.hom_via_limit(reg),
           lambda h: _expect(h.dimension == top, f"dim {h.dimension}, expected {top}"))

    tau, sreg = inputs["small_tau"], inputs["small_regular"]
    # tauRU is isomorphic to the regular module, so Hom(tauRU, regular) has
    # the dimension of Hom(regular, regular), phi(top).
    small_top = phi(STRUCT_HOM_SUPPORT)
    hd = rec.op("hom_direct(tauRU, regular)", lambda: cy.hom_direct(tau, sreg),
                lambda h: _expect(h.dimension == small_top,
                                  f"dim {h.dimension}, expected {small_top}"))
    hl = rec.op("hom_via_limit(tauRU)", lambda: cy.hom_via_limit(tau),
                lambda h: _expect(h.dimension == small_top and hd is not None
                                  and h.dimension == hd.dimension,
                                  f"dim {h.dimension}, expected {small_top}"))
    basis = (hd.basis if hd else []) + (hl.basis if hl else [])
    rec.op("ModuleMorphism.validate on both Hom bases",
           lambda: [f.validate() for f in basis],
           lambda vs: _expect(len(vs) == 2 * small_top and not any(vs),
                              "a basis morphism is not a module morphism"))
    rec.op("cli " + " ".join(STRUCT_RES_ARGS), lambda: cy.cli.run(STRUCT_RES_ARGS),
           lambda r: _expect(r[0] == 0 and r[1].splitlines()[-1] == "overall: ok",
                             f"exit {r[0]}"))


# ---------------------------------------------------------------------------
# normal_basis: sparse monomial rewriting and large canonical JSON output
# ---------------------------------------------------------------------------

NB_SUPPORT = 840


def nb_setup(cy, seed: int) -> dict:
    # The CLI builds its own inputs from the argument list.
    return {}


def nb_check(out: tuple[int, str], top: int) -> str | None:
    """The normal-basis report is an isomorphism at every level of
    divisors(top): exit 0, ok, quotient rank phi(n), square level matrices."""
    code, text = out
    if code != 0:
        return f"exit {code}"
    report = json.loads(text)
    values = report["values"]
    if report["ok"] is not True:
        return "report is not ok"
    want = {str(n): phi(n) for n in divisor_list(top)}
    if values["ranks"] != want:
        return "level ranks differ from the totient"
    for n, mat in values["morphism"]["levels"].items():
        if len(mat) != want[n] or any(len(row) != want[n] for row in mat):
            return f"level {n} matrix is not {want[n]}x{want[n]}"
    return None


def nb_run(cy, inputs: dict, rec: Recorder) -> None:
    argv = ["normal-basis", "--support", f"divisors:{NB_SUPPORT}", "--format", "json"]
    rec.op("cli " + " ".join(argv), lambda: cy.cli.run(argv),
           lambda out: nb_check(out, NB_SUPPORT))


class Workload:
    def __init__(self, name, why, setup, run, spans):
        self.name = name
        self.why = why
        self.setup = setup
        self.run = run
        self.spans = spans  # spans predicted to carry this workload's time


WORKLOADS = {w.name: w for w in [
    Workload(
        "ext_two_ways",
        "Ext two ways: exact rank of the Hom cochain matrices, then the "
        "kernel/solve loop of derived limits, dominate; seeded random sources "
        "vary coefficient growth",
        ext_setup, ext_run,
        ["linalg.rank", "linalg.kernel_basis", "linalg.solve_matrix",
         "linalg.column_space_basis", "modules.restriction_matrix",
         "hom_ext.resolve_by_representables", "hom_ext.ext_via_resolution",
         "hom_ext.lim_derived", "hom_ext.nerve_complex",
         "hom_ext.CochainComplex.cohomology_dims", "cyclic_site.covering_pairs"]),
    Workload(
        "structure_maps",
        "dense per-unit matrix products, Kronecker averaging and small dense "
        "solves dominate; almost no large rank, so elimination changes must "
        "not slow it",
        struct_setup, struct_run,
        ["linalg.matmul", "linalg.kronecker", "linalg.solve_matrix",
         "linalg.kernel_basis", "linalg.column_space_basis", "modules.validate",
         "modules.morphism_factor", "modules.ModuleMorphism.validate",
         "rep_ring.tau_ru_module", "rep_ring.tau_level", "hom_ext.hom_direct",
         "hom_ext.hom_via_limit", "hom_ext.limit_basis",
         "resolution.verify_resolution", "resolution.nontrivial_ext_witness",
         "cli.run", "cyclic_site.covering_pairs"]),
    Workload(
        "normal_basis",
        "sparse monomial rewriting (act_unit) and 1.2 MB of canonical JSON; "
        "its only eliminations are small dense ranks, which must not regress",
        nb_setup, nb_run,
        ["rep_ring.MonomialReducer.act_unit", "rep_ring.MonomialReducer.inflate_from",
         "normal_basis.assemble", "normal_basis.classifier_report", "linalg.rank",
         "serialize.morphism_to_json", "serialize.dumps_canonical", "cli.run",
         "cyclic_site.covering_pairs"]),
]}
