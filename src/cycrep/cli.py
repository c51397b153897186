"""Command-line front end.

One process per command; computations dispatch to the library and results
come back as a deterministic report, either an aligned text table or
canonical JSON.  The exit code is the conjunction of every check in the
invocation: 0 only when everything asked for passed.

A soft size cap guards against accidentally huge computations (derived
limit complexes grow with the chain count of the poset); it counts the
matrix entries the planned computation will store, approximately or as a
bound, and refuses loudly rather than thrash.  Both bounds live in
``hom_ext`` beside what they charge: ``_estimate_hom_entries`` with
``hom_direct``, ``_estimate_nerve_entries`` with ``nerve_complex``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

from .cyclic_site import SupportSet, divisor_closure, support_of_divisors, totient
from .hom_ext import (
    _estimate_hom_entries,
    _estimate_nerve_entries,
    dual_system,
    ext_via_resolution,
    hom_direct,
    lim_derived,
    limit_basis,
    sequential_lim1,
    tower_along_chain,
)
from .modules import regular_module, validate
from .normal_basis import classifier_report, normal_basis_report, unscaled_family
from .rep_ring import tau_level
from .resolution import build_complex, nontrivial_ext_witness, verify_resolution
from .serialize import (
    BUILTINS,
    InvalidModuleFile,
    dumps_canonical,
    load_module,
    morphism_to_json,
    results_to_json,
)

DEFAULT_SIZE_CAP = 10 ** 6


class SizeCapExceeded(RuntimeError):
    pass


def parse_support(spec: str) -> SupportSet:
    """divisors:N, upto:N, or an explicit comma list (must be divisor-closed)."""
    spec = spec.strip()
    kind, _, bound = spec.partition(":")
    try:
        if kind in ("divisors", "upto"):
            n = int(bound)
        else:
            members = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"malformed support spec {spec!r}") from None
    if kind == "divisors":
        return support_of_divisors(n)
    if kind == "upto":
        return divisor_closure(list(range(1, n + 1)))
    if not members:
        raise ValueError("empty support spec")
    return SupportSet(members)  # rejects non-divisor-closed lists


def _check_size_cap(estimated: int, cap: int, what: str) -> None:
    if estimated > cap:
        raise SizeCapExceeded(
            f"{what} would allocate about {estimated} matrix entries, over the "
            f"cap of {cap}; raise --size-cap to proceed deliberately")


class Report:
    """Named checks plus named dimension lists, rendered deterministically."""

    def __init__(self) -> None:
        self.checks: list[dict[str, Any]] = []
        self.values: dict[str, Any] = {}

    def check(self, name: str, passed: bool, dims: Any = None) -> None:
        entry: dict[str, Any] = {"name": name, "pass": bool(passed)}
        if dims is not None:
            entry["dims"] = dims
        self.checks.append(entry)

    def value(self, key: str, val: Any) -> None:
        self.values[key] = val

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return dumps_canonical({"checks": self.checks, "values": self.values,
                                    "ok": self.ok})
        width = max((len(c["name"]) for c in self.checks), default=0)
        lines = []
        for key in sorted(self.values):
            rendered = f"{self.values[key]}"
            if len(rendered) > 200:
                rendered = f"<{len(rendered)} chars; use --format json>"
            lines.append(f"{key}: {rendered}")
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            extra = f"  dims={c['dims']}" if "dims" in c else ""
            lines.append(f"[{status}] {c['name']:<{width}}{extra}")
        lines.append(f"overall: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _cmd_validate(args, support: SupportSet, rep: Report) -> None:
    try:
        x = load_module(args.source, support)
    except InvalidModuleFile as exc:
        violations = exc.violations
    else:
        violations = validate(x)
    for v in violations:
        rep.check(f"violation: {v}", False)
    rep.check(f"module {args.source} valid over {list(support)}", not violations)


def _cmd_hom(args, support: SupportSet, rep: Report) -> None:
    x = load_module(args.source, support)
    y = load_module(args.target or "regular", support)
    _check_size_cap(_estimate_hom_entries(x, y), args.size_cap, "the morphism system")
    hs = hom_direct(x, y)
    rep.value("dim", hs.dimension)
    if args.format == "json":
        # the basis morphisms; text output would print only their length
        basis = [morphism_to_json(f.source.name, f.target.name, f.mats) for f in hs.basis]
        rep.value("results", results_to_json([hs.dimension], basis))
    rep.check("morphism space computed", True, dims=[hs.dimension])
    rep.check("every basis morphism is equivariant and natural",
              not any(f.validate() for f in hs.basis))
    if (args.target or "regular") == "regular":
        hl = len(limit_basis(dual_system(x)))  # not rebuilt as morphisms
        rep.check("direct solve agrees with the inverse-limit route",
                  hl == hs.dimension, dims=[hs.dimension, hl])


def _cmd_ext(args, support: SupportSet, rep: Report) -> None:
    x = load_module(args.source, support)
    target_name = args.target or "regular"
    y = load_module(target_name, support)
    k = args.max_degree
    # the resolution route stores sparse rows only; the nerve complex of the
    # derived-limit cross-check is what the cap charges
    if target_name == "regular":
        _check_size_cap(_estimate_nerve_entries(x, k), args.size_cap, "the nerve complex")
    dims = ext_via_resolution(x, y, k)
    rep.value("dims", dims)
    rep.value("results", results_to_json(dims, []))
    rep.check("extension groups computed", True, dims=dims)
    if target_name == "regular":
        lims = lim_derived(dual_system(x), k).dims
        rep.check("resolution route agrees with derived limits",
                  lims == dims, dims=lims)


def _cmd_lim(args, support: SupportSet, rep: Report) -> None:
    x = load_module(args.source, support)
    _check_size_cap(_estimate_nerve_entries(x, args.max_degree), args.size_cap,
                    "the nerve complex")
    out = lim_derived(dual_system(x), args.max_degree)
    rep.value("dims", out.dims)
    rep.value("results", results_to_json(
        out.dims, [[[str(v) for v in w] for w in ws] for ws in out.witnesses]))
    rep.check("derived limits computed", True, dims=out.dims)
    rep.check("differential squares to zero", out.complex.check_d_squared())


def _cmd_tau_ru(args, support: SupportSet, rep: Report) -> None:
    dims = {n: tau_level(n).dim for n in support}
    rep.value("dims", {str(n): d for n, d in dims.items()})
    rep.check("quotient dimension equals the totient at every level",
              all(d == totient(n) for n, d in dims.items()))


def _cmd_normal_basis(args, support: SupportSet, rep: Report) -> None:
    r = normal_basis_report(support)
    rep.value("ranks", {str(l.level): (l.dim if l.invertible else -1) for l in r.levels})
    rep.value("isomorphism", r.ok)
    if args.format == "json":
        # the full levelwise morphism; omitted from text output for readability
        rep.value("morphism", morphism_to_json("regular", "tauRU", r.mats))
    for l in r.levels:
        rep.check(f"level {l.level} invertible", l.invertible)
        rep.check(f"level {l.level} equivariant", l.equivariant)
    for s in r.squares:
        rep.check(f"naturality {s.source}->{s.target}", s.natural)
    if args.show_unscaled_failure:
        bad = classifier_report(unscaled_family(support))
        failing = [f"{s.source}->{s.target}" for s in bad.squares if not s.natural]
        rep.value("unscaled_failing_squares", failing)
        rep.check("unscaled family fails restriction compatibility", bool(failing))


def _cmd_resolution(args, support: SupportSet, rep: Report) -> None:
    try:
        primes = [int(p) for p in args.primes.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"malformed primes spec {args.primes!r}") from None
    cx = build_complex(primes, args.max_degree, support)
    r = verify_resolution(cx)
    rep.value("sign_convention", r.convention)
    for c in r.checks:
        rep.check(c.name, c.passed)
    # the complex over k distinct primes ends in degree k, and the witness
    # in degree n reads d_{n+1}
    for n in range(1, min(cx.max_degree - 1, len(cx.primes)) + 1):
        w, _, _ = nontrivial_ext_witness(cx, n)
        rep.check(f"degree {n} witness cocycle is nontrivial", w.nontrivial,
                  dims=[w.hom_below_dim])


def _cmd_report(args, support: SupportSet, rep: Report) -> None:
    reg = regular_module(support)
    rep.check("regular module valid", not validate(reg))
    rep.check("normal basis isomorphism", normal_basis_report(support).ok)
    # each label and the operand it names: random:i is seeded at --seed + i
    operands = {"regular": "regular", "tauRU": "tauRU"}
    operands.update({f"random:{i}": f"random:{args.seed + i}" for i in range(3)})
    for name, spec in operands.items():
        x = reg if spec == "regular" else load_module(spec, support)
        dx = dual_system(x)
        # only the dimensions are checked: each Hom basis is dropped as soon
        # as it is counted, so no two are ever held at once
        hd = hom_direct(x, reg).dimension
        hl = len(limit_basis(dx))
        rep.check(f"hom oracle agreement for {name}", hd == hl, dims=[hd, hl])
        k = min(args.max_degree, 2)
        dims = ext_via_resolution(x, reg, k)
        lims = lim_derived(dx, k).dims
        rep.check(f"ext/derived-limit agreement for {name}", dims == lims, dims=dims)
    chain = support.chain(1, max(support))
    tower = tower_along_chain(dual_system(reg), chain)
    t = sequential_lim1(*tower)
    rep.check("dual regular tower has vanishing lim1",
              t.lim1_dim == 0 and t.mittag_leffler,
              dims=[t.lim_dim, t.lim1_dim])


def _common(p: argparse.ArgumentParser, source: bool = False, target: bool = False,
            degree: bool = False, seed: bool = False, cap: bool = False) -> None:
    p.add_argument("--support", required=True,
                   help="divisors:N | upto:N | comma list (divisor-closed)")
    if source:
        names = ", ".join(BUILTINS).translate(str.maketrans("", "", "<>"))
        p.add_argument("--source", required=True,
                       help=f"built-in name ({names}) or a module JSON file; "
                            "write ./name for a file named like a built-in")
    if target:
        p.add_argument("--target", default=None, help="like --source; default regular")
    if degree:
        p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--format", choices=["text", "json"], default="text")
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized property batteries")
    if cap:
        p.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                       help="maximum matrix entries per computation")


# verb: (its command, help line, the options of ``_common`` it takes), in
# help order
_VERBS = {
    "validate": (_cmd_validate, "check module invariants", {"source": True}),
    "hom": (_cmd_hom, "morphism space between two modules",
            {"source": True, "target": True, "cap": True}),
    "ext": (_cmd_ext, "extension groups via a resolution",
            {"source": True, "target": True, "degree": True, "cap": True}),
    "lim": (_cmd_lim, "derived inverse limits of the dual system",
            {"source": True, "degree": True, "cap": True}),
    "tau-ru": (_cmd_tau_ru, "transfer-quotient dimensions", {}),
    "normal-basis": (_cmd_normal_basis, "verify the normal-basis isomorphism", {}),
    "resolution": (_cmd_resolution, "verify the prime-set resolution", {"degree": True}),
    "report": (_cmd_report, "run the standard battery over a support",
               {"degree": True, "seed": True}),
}


def _add_verb(sub: argparse._SubParsersAction, verb: str) -> None:
    _, help_line, options = _VERBS[verb]
    p = sub.add_parser(verb, help=help_line)
    _common(p, **options)
    if verb == "normal-basis":
        p.add_argument("--show-unscaled-failure", action="store_true",
                       help="also report where the unscaled family breaks")
    elif verb == "resolution":
        p.add_argument("--primes", default="2,3", help="comma list of ambient primes")


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.

    When argv[0] names a verb, only that verb's subparser is built: the
    others cost start-up time and cannot match.  Its help, its errors and
    the top-level usage line print as the full parser's do, since the
    subcommand placeholder lists every verb either way.  Anything else
    (no arguments, --help, an unknown verb) gets the full parser.
    """
    ap = argparse.ArgumentParser(
        prog="cycrep",
        description="Exact computations with modules over the cyclic-group site")
    if argv and argv[0] in _VERBS:
        sub = ap.add_subparsers(dest="verb", required=True,
                                metavar="{" + ",".join(_VERBS) + "}")
        _add_verb(sub, argv[0])
    else:
        sub = ap.add_subparsers(dest="verb", required=True)
        for verb in _VERBS:
            _add_verb(sub, verb)
    return ap


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit code, rendered report)."""
    args = build_parser(argv).parse_args(argv)
    rep = Report()
    try:
        _VERBS[args.verb][0](args, parse_support(args.support), rep)
    except (ValueError, FileNotFoundError, SizeCapExceeded) as exc:
        rep.check(f"error: {exc}", False)
        return 1, rep.emit(args.format)
    return (0 if rep.ok else 1), rep.emit(args.format)


def main() -> None:
    code, text = run(sys.argv[1:])
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): point stdout at devnull so the
        # flush at interpreter exit cannot raise again, and fail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
