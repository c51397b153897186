"""The package's result records, and what importing the package loads.

Every record is a ``typing.NamedTuple``: creating one costs a fraction of
what a ``dataclass`` costs, and ``import cycrep`` then loads neither
``dataclasses`` nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize``),
which each CLI process would otherwise pay for at start-up.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cycrep
from cycrep.resolution import CONTRACTION_SIGN_CONVENTION

# record: (field names in order, defaults of the trailing fields)
RECORDS = {
    "cyclic_site.CharacterBlock": (
        ("level", "key", "order", "exponents", "generator"), {}),
    "cyclic_site.UnitTree": (("edges", "relations"), {}),
    "hom_ext.HomSpace": (("source", "target", "basis"), {}),
    "hom_ext.DerivedLimit": (("dims", "witnesses", "complex"), {}),
    "hom_ext.TowerReport": (("lim_dim", "lim1_dim", "mittag_leffler"), {}),
    "hom_ext.ResolutionStep": (
        ("gens", "classifier_cols", "blocks"), {"blocks": None}),
    "modules.MorphismFactorization": (
        ("kernel", "kernel_inclusion", "image", "image_inclusion", "source_to_image",
         "cokernel", "cokernel_projection"), {}),
    "normal_basis.ClassifierFamily": (
        ("support", "scales", "vectors"), {}),
    "normal_basis.LevelCheck": (("level", "dim", "invertible", "equivariant"), {}),
    "normal_basis.SquareCheck": (
        ("source", "target", "natural", "failing_unit"), {"failing_unit": None}),
    "normal_basis.NormalBasisReport": (
        ("support", "mats", "levels", "squares"), {}),
    "rep_ring.TauLevel": (
        ("level", "dim", "projection", "section", "basis_monomials"), {}),
    "resolution.PrimeComplex": (
        ("primes", "max_degree", "support", "modules", "diffs", "augmentation",
         "target", "tuples"), {}),
    "resolution.CheckResult": (("name", "passed", "details"), {"details": ""}),
    "resolution.ResolutionReport": (
        ("checks", "convention"), {"convention": CONTRACTION_SIGN_CONVENTION}),
    "resolution.ExtWitnessReport": (
        ("degree", "hom_below_dim", "cocycle_is_zero", "composes_to_zero"), {}),
}


def _record(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"cycrep.{module}"), name)


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_record_fields_and_defaults(path):
    cls = _record(path)
    fields, defaults = RECORDS[path]
    assert issubclass(cls, tuple)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    # a field named like a tuple method would shadow it
    assert not {"count", "index"} & set(fields)


def test_every_record_is_listed():
    found = set()
    for module in (m.name for m in pkgutil.iter_modules(cycrep.__path__)):
        mod = importlib.import_module(f"cycrep.{module}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and issubclass(obj, tuple)):
                found.add(f"{module}.{name}")
    assert found == set(RECORDS)


def test_import_loads_no_dataclasses_or_inspect():
    # -S skips site, so that only what cycrep itself imports is seen
    src = os.path.dirname(os.path.dirname(os.path.abspath(cycrep.__file__)))
    code = ("import sys, cycrep, cycrep.cli\n"
            "print(cycrep.__file__)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.splitlines()
    assert out == [os.path.abspath(cycrep.__file__), "[]"]
