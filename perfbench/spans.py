"""Outside-in spans around the public entry points of every cycrep layer.

The traced pass replaces each entry point below with a wrapper that times
it, before the workload binds any name.  cycrep modules import each other's
functions by name (``from .linalg import rank`` in ``hom_ext``,
``normal_basis`` and ``resolution``; ``cli`` imports from ``hom_ext``), so
the wrapper is rebound in every ``cycrep.*`` namespace whose attribute *is*
the original object, and methods are replaced on their class.

Deliberately not wrapped:

* per-entry accessors such as ``QMatrix.__getitem__`` (about 10^8 calls on
  the README-sized inputs; a wrapper would swamp the measurement);
* private helpers (``_rref_rows``, ``_equivariant_basis``, ``_hom_cochain``,
  ...): their time stays in the self time of the public caller.

A span's self time is its duration minus the durations of the spans it
directly contains.  Work done by the probes (matrix nonzero counts, output
sizes) is subtracted from every enclosing span, so it shows only in the
traced pass's wall time, which the benchmark reports as tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute path inside the module)
SPANS = [
    ("linalg.rank", "cycrep.linalg", "rank"),
    ("linalg.kernel_basis", "cycrep.linalg", "kernel_basis"),
    ("linalg.solve_matrix", "cycrep.linalg", "solve_matrix"),
    ("linalg.column_space_basis", "cycrep.linalg", "column_space_basis"),
    ("linalg.matmul", "cycrep.linalg", "QMatrix.__matmul__"),
    ("linalg.kronecker", "cycrep.linalg", "kronecker"),
    ("cyclic_site.covering_pairs", "cycrep.cyclic_site", "SupportSet.covering_pairs"),
    ("modules.validate", "cycrep.modules", "validate"),
    ("modules.restriction_matrix", "cycrep.modules", "restriction_matrix"),
    ("modules.morphism_factor", "cycrep.modules", "morphism_factor"),
    ("modules.ModuleMorphism.validate", "cycrep.modules", "ModuleMorphism.validate"),
    ("rep_ring.tau_ru_module", "cycrep.rep_ring", "tau_ru_module"),
    ("rep_ring.tau_level", "cycrep.rep_ring", "tau_level"),
    ("rep_ring.MonomialReducer.act_unit", "cycrep.rep_ring", "MonomialReducer.act_unit"),
    ("rep_ring.MonomialReducer.inflate_from", "cycrep.rep_ring",
     "MonomialReducer.inflate_from"),
    ("hom_ext.resolve_by_representables", "cycrep.hom_ext", "resolve_by_representables"),
    ("hom_ext.ext_via_resolution", "cycrep.hom_ext", "ext_via_resolution"),
    ("hom_ext.CochainComplex.cohomology_dims", "cycrep.hom_ext",
     "CochainComplex.cohomology_dims"),
    ("hom_ext.lim_derived", "cycrep.hom_ext", "lim_derived"),
    ("hom_ext.nerve_complex", "cycrep.hom_ext", "nerve_complex"),
    ("hom_ext.hom_direct", "cycrep.hom_ext", "hom_direct"),
    ("hom_ext.hom_via_limit", "cycrep.hom_ext", "hom_via_limit"),
    ("hom_ext.limit_basis", "cycrep.hom_ext", "limit_basis"),
    ("normal_basis.assemble", "cycrep.normal_basis", "assemble"),
    ("normal_basis.classifier_report", "cycrep.normal_basis", "classifier_report"),
    ("resolution.verify_resolution", "cycrep.resolution", "verify_resolution"),
    ("resolution.nontrivial_ext_witness", "cycrep.resolution", "nontrivial_ext_witness"),
    ("serialize.morphism_to_json", "cycrep.serialize", "morphism_to_json"),
    ("serialize.dumps_canonical", "cycrep.serialize", "dumps_canonical"),
    ("cli.run", "cycrep.cli", "run"),
]

# Generator counts are reported for resolution degrees 0..GEN_DEGREES-1.
GEN_DEGREES = 4

ELIMINATION = ("linalg.rank", "linalg.kernel_basis", "linalg.solve_matrix",
               "linalg.column_space_basis")
# spans whose arguments or results are measured (see Tracer._after)
PROBED = ELIMINATION + ("hom_ext.resolve_by_representables",
                        "serialize.dumps_canonical", "serialize.morphism_to_json")


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced pass, as (name, unit)."""
    out = []
    for name, _, _ in SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
        if name in ELIMINATION:
            out += [(f"{name}.entries", "count"), (f"{name}.nnz", "count")]
        if name == "linalg.rank":
            out += [(f"{name}.max_bits", "bits"), (f"{name}.pivot_ratio", "ratio")]
        if name == "hom_ext.resolve_by_representables":
            out += [(f"{name}.gens_d{k}", "count") for k in range(GEN_DEGREES)]
        if name.startswith("serialize."):
            out += [(f"{name}.bytes", "bytes")]
    return out


def _matrix_stats(m) -> tuple[int, int, int, int]:
    """rows, cols, nonzero entries, largest numerator/denominator bit length."""
    nnz = 0
    bits = 0
    for i in range(m.rows):
        for v in m.row(i):
            if v:
                nnz += 1
                b = max(v.numerator.bit_length(), v.denominator.bit_length())
                if b > bits:
                    bits = b
    return m.rows, m.cols, nnz, bits


class _Stat:
    __slots__ = ("calls", "total", "self", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Span statistics of one traced pass, kept in memory until it ends."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for name, _, _ in SPANS}
        self.shapes: dict[tuple, int] = {}
        self.gens: list[list[int]] = []
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (used after input set-up).

        Clears in place: the installed spans hold these very objects."""
        for st in self.stats.values():
            st.calls = 0
            st.total = st.self = 0.0
            st.extra.clear()
        self.shapes.clear()
        self.gens.clear()

    # probes: extra counts taken around a call, outside its timing

    def _before(self, name: str, args: tuple):
        if name in ELIMINATION:
            if name == "linalg.solve_matrix":
                a, b = args[0], args[1]
                ra, ca, za, ba = _matrix_stats(a)
                _, cb, zb, bb = _matrix_stats(b)
                return (ra, ca + cb, za + zb, max(ba, bb))
            return _matrix_stats(args[0])
        return None

    def _after(self, name: str, before, result) -> None:
        stat = self.stats[name]
        if before is not None:
            rows, cols, nnz, bits = before
            stat.add("entries", rows * cols)
            stat.add("nnz", nnz)
            stat.extra["max_bits"] = max(stat.extra.get("max_bits", 0), bits)
            if name == "linalg.rank":
                stat.add("rank_sum", result)
                stat.add("rows_sum", rows)
            key = (name, rows, cols, nnz, bits)
            self.shapes[key] = self.shapes.get(key, 0) + 1
        elif name == "hom_ext.resolve_by_representables":
            per_degree = [len(step.gens) for step in result]
            self.gens.append(per_degree)
            for k, g in enumerate(per_degree[:GEN_DEGREES]):
                stat.add(f"gens_d{k}", g)
        elif name == "serialize.dumps_canonical":
            stat.add("bytes", len(result.encode("utf-8")))
        elif name == "serialize.morphism_to_json":
            stat.add("bytes", len(json.dumps(result, separators=(",", ":"))))

    def wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        probed = name in PROBED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t_enter = clock()
            before = self._before(name, args) if probed else None
            frame = [0.0, 0.0]  # time in child spans, probe time to discount
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0 - frame[1]
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - frame[0]
            if probed:
                self._after(name, before, result)
            if stack:
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += frame[1] + (t0 - t_enter) + (clock() - t1)
            return result

        return span

    def report(self) -> dict[str, float]:
        """Per-layer metric values, named as in ``metric_specs``."""
        out: dict[str, float] = {}
        for metric, _ in metric_specs():
            span, _, key = metric.rpartition(".")
            st = self.stats[span]
            if key == "calls":
                out[metric] = st.calls
            elif key == "total_s":
                out[metric] = st.total
            elif key == "self_s":
                out[metric] = st.self
            elif key == "pivot_ratio":
                rows = st.extra.get("rows_sum", 0)
                out[metric] = st.extra.get("rank_sum", 0) / rows if rows else 0.0
            else:
                out[metric] = st.extra.get(key, 0)
        return out

    def shape_table(self) -> list[list]:
        """Elimination calls grouped by (span, rows, cols, nnz, max_bits)."""
        return [list(k) + [n] for k, n in sorted(self.shapes.items())]


def install(tracer: Tracer) -> None:
    """Swap every entry point in SPANS for its span, under every alias."""
    for modname in ("cycrep", "cycrep.cli"):
        importlib.import_module(modname)
    namespaces = [m for k, m in sys.modules.items()
                  if k == "cycrep" or k.startswith("cycrep.")]
    for name, modname, path in SPANS:
        owner = importlib.import_module(modname)
        head, _, attr = path.rpartition(".")
        if head:
            cls = getattr(owner, head)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)


def unwrapped_aliases() -> list[str]:
    """Module attributes that still hold an original entry point after
    ``install``; empty when every alias was caught."""
    out = []
    namespaces = {k: m for k, m in sys.modules.items()
                  if k == "cycrep" or k.startswith("cycrep.")}
    for name, modname, path in SPANS:
        head, _, attr = path.rpartition(".")
        if head:
            cls = getattr(sys.modules[modname], head)
            if not hasattr(cls.__dict__[attr], "__wrapped__"):
                out.append(f"{modname}.{path}")
            continue
        current = getattr(sys.modules[modname], attr)
        original = getattr(current, "__wrapped__", None)
        if original is None:
            out.append(f"{modname}.{path}")
            continue
        for k, ns in namespaces.items():
            for key, value in vars(ns).items():
                if value is original:
                    out.append(f"{k}.{key}")
    return out
