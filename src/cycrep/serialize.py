"""Stable JSON forms for matrices, ring elements, modules and morphisms.

Rationals serialize as "a/b" with positive denominator and the fraction in
lowest terms; plain integers omit the denominator.  Matrices are nested
arrays of such strings; zero-dimensional matrices rely on the surrounding
object's dimension fields to pin their shapes.  Serialization is canonical,
so byte-identical output for identical inputs is part of the contract:
``dumps_canonical`` sorts keys, indents by two spaces and escapes every
non-ASCII or control character, writing the same bytes as
``json.dumps(obj, sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cyclic_site import SupportSet, units
from .linalg import QMatrix, rat, rat_to_str
from .modules import (
    OutCycModule,
    atomic_module,
    free_module,
    random_module,
    regular_module,
    semifree_module,
    validate,
)
from .rep_ring import RUElement, tau_ru_module


def matrix_to_json(m: QMatrix) -> list[list[str]]:
    """Nested rows of canonical strings: "0" where no entry is stored, and
    each stored entry formatted once."""
    out = []
    for r in m.data:
        row = ["0"] * m.cols
        for j, v in r.items():
            row[j] = rat_to_str(v)
        out.append(row)
    return out


def rat_from_json(x: Any) -> Fraction:
    """Parse a canonical rational string: "a", or "a/b" in lowest terms with b > 0."""
    if isinstance(x, str):
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError):
            q = None
        if q is not None and rat_to_str(q) == x:
            return q
    raise ValueError(f"not a canonical rational string: {x!r} "
                     f"(expected \"a\" or \"a/b\" in lowest terms, b > 0)")


def matrix_from_json(data: Any, rows: int, cols: int) -> QMatrix:
    if not isinstance(data, list) or len(data) != rows:
        raise ValueError(f"expected {rows} rows, got {data!r}")
    flat = []
    for r in data:
        if not isinstance(r, list) or len(r) != cols:
            raise ValueError(f"expected rows of length {cols}")
        flat.extend(rat_from_json(x) for x in r)
    return QMatrix(rows, cols, flat)


def ru_to_json(a: RUElement) -> dict:
    return {"level": a.level, "coeffs": [rat_to_str(c) for c in a.coeffs]}


def ru_from_json(obj: Any) -> RUElement:
    return RUElement(int(obj["level"]), [rat(c) for c in obj["coeffs"]])


def module_to_json(x: OutCycModule) -> dict:
    levels = {}
    for n in x.support:
        levels[str(n)] = {
            "dim": x.dim(n),
            "action": {str(l): matrix_to_json(x.action(n, l)) for l in units(n)},
        }
    restrictions = {f"{n}->{m}": matrix_to_json(x.restriction_step(n, m))
                    for n, m in x.support.covering_pairs()}
    return {"support": list(x.support), "levels": levels, "restrictions": restrictions}


def _field(obj: Any, key: str, kind: type, where: str) -> Any:
    """``obj[key]``, which must exist and be a ``kind`` (never a bool)."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no {key!r} entry")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ValueError(f"{where}: {key!r} must be a JSON {_JSON_KIND[kind]}, "
                         f"got {val!r}")
    return val


_JSON_KIND = {list: "array", dict: "object", int: "integer"}


def module_from_json(obj: Any) -> OutCycModule:
    """Parse a module object; a missing or mistyped entry raises ValueError."""
    members = _field(obj, "support", list, "module")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in members):
        raise ValueError(f"module: 'support' must list integers, got {members!r}")
    support = SupportSet(members)
    levels = _field(obj, "levels", dict, "module")
    if sorted(levels) != sorted(str(n) for n in support):
        raise ValueError(f"module: 'levels' must have one entry per support level "
                         f"{list(support)}, got {sorted(levels)}")
    dims = {}
    actions = {}
    for n in support:
        lv = levels[str(n)]
        d = _field(lv, "dim", int, f"level {n}")
        if d < 0:
            raise ValueError(f"level {n}: 'dim' must not be negative, got {d}")
        dims[n] = d
        acts = _field(lv, "action", dict, f"level {n}")
        if set(acts) != {str(l) for l in units(n)}:
            raise ValueError(f"level {n}: 'action' must have one entry per unit "
                             f"{list(units(n))}, in decimal, got {sorted(acts)}")
        actions[n] = {l: matrix_from_json(acts[str(l)], d, d) for l in units(n)}
    restrictions = {}
    pairs = {f"{a}->{b}": (a, b) for a, b in support.covering_pairs()}
    given = _field(obj, "restrictions", dict, "module") if "restrictions" in obj else {}
    for key, mat in given.items():
        if key not in pairs:
            raise ValueError(f"restriction {key!r} is not a covering pair of the support")
        a, b = pairs[key]
        restrictions[(a, b)] = matrix_from_json(mat, dims[b], dims[a])
    for pair in pairs.values():
        if pair not in restrictions:
            raise ValueError(f"missing restriction for covering pair {pair}")
    return OutCycModule(support, dims, actions, restrictions, name="from-file")


def morphism_to_json(source: str, target: str, mats: dict[int, QMatrix]) -> dict:
    """A morphism's level matrices under its source and target names."""
    return {
        "source": source or "?",
        "target": target or "?",
        "levels": {str(n): matrix_to_json(m) for n, m in mats.items()},
    }


def results_to_json(dims: list[int], witnesses: list[Any]) -> dict:
    return {"dims": list(dims), "witnesses": witnesses}


def dumps_canonical(obj: Any) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it,
    byte for byte, without that encoder's generator step per token."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write(obj: Any, nl: str, out: list[str]) -> None:
    """Append ``obj`` written at the depth where a line break is ``nl`` (a
    newline and the enclosing indent).  Non-empty lists, non-empty dicts with
    ``str`` keys, and leaves of type exactly ``str`` or ``int`` are written
    here; anything else (empty containers, bools, None, floats, tuples,
    subclasses, other keys) by the reference encoder, re-indented, so that
    its output and its errors are the reference's."""
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
        return
    if kind is int:
        out.append(int.__repr__(obj))
        return
    inner = nl + "  "
    if kind is list and obj:
        if type(obj[0]) is str:
            # a matrix row of rationals: one join, if no entry needs an escape
            # (a str subclass joins as its text, which is what the reference
            # writes for it too)
            try:
                text = "".join(obj)
            except TypeError:
                text = None
            if text is not None and len(_encode_str(text)) == len(text) + 2:
                out.append('[' + inner + '"' + ('",' + inner + '"').join(obj) + '"' + nl + ']')
                return
        head = "[" + inner
        for x in obj:
            out.append(head)
            _write(x, inner, out)
            head = "," + inner
        out.append(nl + "]")
        return
    if kind is dict and obj and all(type(k) is str for k in obj):
        head = "{" + inner
        for k in sorted(obj):
            out.append(head + _encode_str(k) + ": ")
            _write(obj[k], inner, out)
            head = "," + inner
        out.append(nl + "}")
        return
    out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl))


BUILTIN_NAMES = ("regular", "tauRU", "free:<n>", "semifree:<n>", "atomic:<n>:<d>",
                 "random:<n>")


_BUILTIN_ARITY = {"regular": 0, "tauRU": 0, "free": 1, "semifree": 1, "atomic": 2,
                  "random": 1}


def _parse_builtin(name: str) -> tuple[str, list[int]] | None:
    """The constructor and integer arguments a built-in name spells, or None."""
    head, *rest = name.split(":")
    if _BUILTIN_ARITY.get(head) != len(rest):
        return None
    try:
        return head, [int(a) for a in rest]
    except ValueError:
        return None


def is_builtin_name(name: str) -> bool:
    """Whether ``module_from_name`` reads the name as a built-in, so that a
    file of that name loads only under a path with a directory part."""
    return _parse_builtin(name) is not None


def module_from_name(name: str, support: SupportSet) -> OutCycModule:
    """Resolve a built-in constructor name over the given support;
    ``random:n`` is ``random_module(support, n)``."""
    parsed = _parse_builtin(name)
    if parsed is None:
        raise ValueError(f"unknown module name {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
    head, args = parsed
    if head == "regular":
        return regular_module(support)
    if head == "tauRU":
        return tau_ru_module(support)
    if head == "free":
        return free_module(args[0], support)
    if head == "semifree":
        return semifree_module(args[0], support)
    if head == "atomic":
        return atomic_module(args[0], args[1], support)
    return random_module(support, args[0])


class InvalidModuleFile(ValueError):
    """A module file that is malformed or violates the module invariants."""

    def __init__(self, path: str, violations: list[str]):
        super().__init__(f"module file {path} is not a valid module: "
                         + "; ".join(violations))
        self.violations = violations


def load_module(spec: str, support: SupportSet) -> OutCycModule:
    """A built-in name, else a module JSON file.

    A spec that spells a built-in in full is one, even when a file of that
    name exists; write such a file with a directory part (``./regular``).
    A module read from a file is parsed strictly and then validated
    (``validate``, exact); a path that cannot be read as a file (a
    directory, say), a malformed file or any violation raises
    ``InvalidModuleFile`` carrying the list of problems.
    """
    import os
    if is_builtin_name(spec) or not os.path.exists(spec):
        return module_from_name(spec, support)
    try:
        with open(spec) as fh:
            x = module_from_json(json.load(fh))
    except (OSError, ValueError) as exc:
        raise InvalidModuleFile(spec, [str(exc)]) from None
    if x.support != support:
        raise ValueError(f"module file support {list(x.support)} does not match "
                         f"requested support {list(support)}")
    violations = validate(x)
    if violations:
        raise InvalidModuleFile(spec, violations)
    return x
