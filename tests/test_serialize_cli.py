import ast
import enum
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cycrep.cyclic_site import SupportSet, support_of_divisors
from cycrep.linalg import QMatrix
from cycrep.cyclic_site import units
from cycrep.hom_ext import (_estimate_hom_entries, _estimate_nerve_entries, _hom_rows,
                            _offsets, dual_system, hom_direct, lim_derived)
from cycrep.modules import (atomic_module, direct_sum, free_module, random_module,
                            regular_module, semifree_module)
from cycrep.rep_ring import RUElement
from cycrep.serialize import (
    InvalidModuleFile,
    is_builtin_name,
    matrix_from_json,
    matrix_to_json,
    module_from_json,
    module_to_json,
    morphism_to_json,
    ru_from_json,
    ru_to_json,
    load_module,
    dumps_canonical,
)
from cycrep.cli import DEFAULT_SIZE_CAP, build_parser, parse_support, run
from cycrep.resolution import build_complex

from oracles import reference_dumps_canonical


class TestSerialization:
    def test_matrix_strings(self):
        m = QMatrix.from_rows([["1/2", -3], [0, "7"]])
        data = matrix_to_json(m)
        assert data == [["1/2", "-3"], ["0", "7"]]
        assert matrix_from_json(data, 2, 2) == m

    def test_zero_dimensional_matrices(self):
        m = QMatrix.zeros(0, 3)
        assert matrix_from_json(matrix_to_json(m), 0, 3) == m
        m2 = QMatrix.zeros(2, 0)
        assert matrix_from_json(matrix_to_json(m2), 2, 0) == m2

    def test_ru_round_trip(self):
        a = RUElement(4, ["1/3", 0, -2, "5/7"])
        assert ru_from_json(ru_to_json(a)) == a
        assert ru_to_json(a)["coeffs"] == ["1/3", "0", "-2", "5/7"]

    def test_module_round_trip(self):
        for x in [regular_module(support_of_divisors(12)),
                  atomic_module(4, 2, support_of_divisors(4)),
                  random_module(support_of_divisors(6), 11)]:
            back = module_from_json(module_to_json(x))
            assert back == x

    def test_module_round_trip_through_text(self):
        x = regular_module(support_of_divisors(6))
        text = dumps_canonical(module_to_json(x))
        assert module_from_json(json.loads(text)) == x

    def test_missing_restriction_rejected(self):
        x = regular_module(support_of_divisors(4))
        obj = module_to_json(x)
        del obj["restrictions"]["2->4"]
        with pytest.raises(ValueError):
            module_from_json(obj)

    def test_morphism_serialization_shape(self):
        from cycrep.modules import identity_morphism
        f = identity_morphism(regular_module(support_of_divisors(4)))
        data = morphism_to_json(f.source.name, f.target.name, f.mats)
        assert set(data["levels"]) == {"1", "2", "4"}
        assert (data["source"], data["target"]) == ("regular", "regular")
        assert morphism_to_json("", "", f.mats)["source"] == "?"


class Level(enum.IntEnum):
    ONE = 1


class Tag(str):
    def __str__(self):
        return "tag"


# strings that need no escape (the shape of canonical rationals) and ones
# that do: quote, backslash, control characters, DEL, non-ASCII, astral;
# and a str subclass, which json writes as its text
rational_strings = st.from_regex(r"-?[0-9]{1,4}(/[1-9][0-9]{0,3})?", fullmatch=True)
escaped_strings = st.sampled_from(['"', "\\", "a\"b", "\x00", "\n", "\x1f", "\x7f", "é",
                                   "\U0001d11e", "1/2\u2028"])
json_strings = st.one_of(rational_strings, escaped_strings, st.text(max_size=5),
                         st.builds(Tag, rational_strings))
json_leaves = st.one_of(
    json_strings,
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(2 ** 64, 2 ** 200),
    st.integers(-2 ** 200, -2 ** 64),
    st.booleans(),
    st.none(),
    st.floats(),
    st.just(Level.ONE),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(rational_strings, min_size=1, max_size=4),
        st.lists(json_strings, min_size=1, max_size=4),
        st.dictionaries(json_strings, children, max_size=4),
        st.dictionaries(st.integers(-50, 50), children, max_size=4),
    ),
    max_leaves=40,
)


def canonical_outcome(writer, obj):
    """The writer's text, or TypeError if it raised one."""
    try:
        return writer(obj)
    except TypeError:
        return TypeError


class TestCanonicalJson:
    """``dumps_canonical`` against the reference indenting encoder."""

    @settings(max_examples=300, deadline=None)
    @given(json_trees)
    @example({"b": [[{"c": [["1", "-2/3"], []]}, ()], {}], "a": {"x": [{}]}})
    @example([[[[["1/2", "0"], [0, True, None, 1.5]]]], {3: {-1: [[]]}}])
    def test_matches_reference(self, obj):
        assert (canonical_outcome(dumps_canonical, obj)
                == canonical_outcome(reference_dumps_canonical, obj))

    @pytest.mark.parametrize("obj", [
        {1: "a", "b": "c"},
        {"x": [{"b": 1, 2: 3}]},
    ])
    def test_mixed_keys_raise_type_error(self, obj):
        for writer in (dumps_canonical, reference_dumps_canonical):
            with pytest.raises(TypeError):
                writer(obj)

    def test_bools_are_not_ints(self):
        assert dumps_canonical([True, 1, False]) == "[\n  true,\n  1,\n  false\n]"

    @pytest.mark.parametrize("odd, escaped", [("é", '"\\u00e9"'), ('a"b', '"a\\"b"')])
    def test_string_row_with_an_escape(self, odd, escaped):
        row = ["1/2", "-3", odd, "0"]
        text = dumps_canonical({"row": row})
        assert text == reference_dumps_canonical({"row": row})
        assert escaped in text

    def test_empty_containers_and_sorted_keys(self):
        assert dumps_canonical({"b": [], "a": {}}) == '{\n  "a": {},\n  "b": []\n}'

    def test_top_level_leaves(self):
        assert dumps_canonical("x") == '"x"'
        assert dumps_canonical(-7) == "-7"

def write_module_file(tmp_path, level2_unit1, level3_unit2_corner):
    """The regular module over 1,2,3 with two action entries overwritten."""
    obj = module_to_json(regular_module(SupportSet([1, 2, 3])))
    obj["levels"]["2"]["action"]["1"] = [[level2_unit1]]
    obj["levels"]["3"]["action"]["2"][0][0] = level3_unit2_corner
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestBoundaryChecks:
    def test_only_canonical_rational_strings(self):
        assert matrix_from_json([["-2/3", "0", "7"]], 1, 3) == QMatrix.from_rows([["-2/3", 0, 7]])
        for bad in ["2/4", "1.5", "3/-4", "-6/1", "+1", " 1", "1e2", "1/0", "x", "", 1, None]:
            with pytest.raises(ValueError):
                matrix_from_json([[bad]], 1, 1)

    @pytest.mark.parametrize("verb", ["hom", "ext"])
    def test_non_canonical_module_file_is_refused(self, tmp_path, verb):
        # level 2 acts by 2/4, level 3 has a decimal: the file is neither
        # canonical nor a module, and no verb may report success on it
        path = write_module_file(tmp_path, "2/4", "1.5")
        code, text = run([verb, "--support", "1,2,3", "--source", path,
                          "--target", "regular"])
        assert code != 0
        assert "overall: ok" not in text and "not a canonical rational" in text

    @pytest.mark.parametrize("verb", ["hom", "ext"])
    def test_invalid_module_file_is_refused(self, tmp_path, verb):
        path = write_module_file(tmp_path, "1/2", "3/2")
        code, text = run([verb, "--support", "1,2,3", "--source", path,
                          "--target", "regular"])
        assert code != 0
        assert "overall: ok" not in text and "not a valid module" in text

    @pytest.mark.parametrize("verb", ["validate", "hom", "ext"])
    @pytest.mark.parametrize("obj,problem", [
        ({"support": [1, 2]}, "no 'levels' entry"),
        ({"levels": {}}, "no 'support' entry"),
        ({"support": "1,2", "levels": {}}, "'support' must be a JSON array"),
        ({"support": [1, 2], "levels": {"1": {"dim": 1, "action": {"1": [["1"]]}}}},
         "one entry per support level"),
        ({"support": [1, 2], "levels": {"1": {"dim": "1", "action": {"1": [["1"]]}},
                                        "2": {"dim": 1, "action": {"1": [["1"]]}}}},
         "'dim' must be a JSON integer"),
        ({"support": [1, 2], "levels": {"1": {"dim": 1, "action": [["1"]]},
                                        "2": {"dim": 1, "action": {"1": [["1"]]}}}},
         "'action' must be a JSON object"),
        ({"support": [1, 2], "levels": {"1": {"dim": 1},
                                        "2": {"dim": 1, "action": {"1": [["1"]]}}}},
         "no 'action' entry"),
    ])
    def test_malformed_module_file_is_refused(self, tmp_path, verb, obj, problem):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidModuleFile, match=problem):
            load_module(str(path), SupportSet([1, 2]))
        code, text = run([verb, "--support", "1,2", "--source", str(path)])
        assert code == 1 and text.endswith("overall: FAILED")
        assert problem in text

    @pytest.mark.parametrize("edit,problem", [
        # a non-unit of 9 as an action key
        (lambda obj: obj["levels"]["9"]["action"].update({"3": [["1"] * 6] * 6}),
         "one entry per unit"),
        # a second spelling of the unit 2 next to "2"
        (lambda obj: obj["levels"]["9"]["action"].update(
            {"02": obj["levels"]["9"]["action"]["4"]}), "one entry per unit"),
        # a second spelling of the covering pair 3->9
        (lambda obj: obj["restrictions"].update({"03->9": obj["restrictions"]["3->9"]}),
         "'03->9' is not a covering pair"),
    ], ids=["non-unit", "unit-spelled-twice", "pair-spelled-twice"])
    def test_non_canonical_keys_are_refused(self, tmp_path, edit, problem):
        obj = module_to_json(regular_module(support_of_divisors(9)))
        edit(obj)
        path = tmp_path / "keys.json"
        path.write_text(json.dumps(obj))
        code, text = run(["validate", "--support", "divisors:9", "--source", str(path)])
        assert code == 1 and text.endswith("overall: FAILED")
        assert problem in text and "overall: ok" not in text

    @pytest.mark.parametrize("verb", ["validate", "hom"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_directory_as_module_is_refused(self, tmp_path, verb, fmt):
        # opening a directory raises IsADirectoryError, an OSError; it must
        # come back as a failed check in the report, not as a traceback
        path = str(tmp_path)
        with pytest.raises(InvalidModuleFile, match="Is a directory"):
            load_module(path, SupportSet([1]))
        code, text = run([verb, "--support", "1", "--source", path, "--format", fmt])
        assert code == 1
        if fmt == "json":
            out = json.loads(text)
            assert out["ok"] is False
            failed = [c["name"] for c in out["checks"] if not c["pass"]]
        else:
            assert text.endswith("overall: FAILED")
            failed = [line for line in text.splitlines() if line.startswith("[FAIL]")]
        assert any("Is a directory" in name for name in failed)
        prefix = "violation: " if verb == "validate" else "error: "
        assert any(prefix in name for name in failed)

    def test_validate_lists_each_violation(self, tmp_path):
        path = write_module_file(tmp_path, "1/2", "3/2")
        with pytest.raises(InvalidModuleFile) as info:
            load_module(path, SupportSet([1, 2, 3]))
        code, text = run(["validate", "--support", "1,2,3", "--source", path])
        assert code == 1 and "overall: FAILED" in text
        assert info.value.violations
        for v in info.value.violations:
            assert f"[FAIL] violation: {v}" in text


class TestBuiltinNames:
    def test_builtins_resolve(self):
        s = support_of_divisors(12)
        assert load_module("regular", s).name == "regular"
        assert load_module("tauRU", s).name == "tauRU"
        assert load_module("free:3", s).dim(3) == 2
        assert load_module("semifree:2", s).dim(2) == 1
        assert load_module("atomic:4:2", s).dim(4) == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_module("bogus", support_of_divisors(4))

    def test_file_loading_and_builtin_precedence(self, tmp_path):
        s = support_of_divisors(4)
        custom = atomic_module(2, 1, s)
        path = tmp_path / "regular"   # a file named like a built-in
        path.write_text(dumps_canonical(module_to_json(custom)))
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert load_module("regular", s).name == "regular"  # built-in wins
            loaded = load_module("./regular", s)
            assert loaded == custom                             # a path is a file
        finally:
            os.chdir(cwd)

    @pytest.mark.parametrize("name", ["random:1", "atomic:1:1", "free", "atomic:1", "free:x"])
    def test_files_named_like_builtins_do_not_shadow(self, name, tmp_path, monkeypatch):
        # only names a built-in constructor reads take precedence over a file
        builtin = name in ("random:1", "atomic:1:1")
        s = support_of_divisors(4)
        (tmp_path / name).write_text(dumps_canonical(module_to_json(
            direct_sum([atomic_module(2, 1, s)], name="from-file"))))
        monkeypatch.chdir(tmp_path)
        assert (load_module(name, s).name != "from-file") == builtin
        assert load_module(f"./{name}", s).name == "from-file"
        code, text = run(["validate", "--support", "divisors:4", "--source", name])
        assert code == 0 and text.splitlines()[-1] == "overall: ok"

    def test_a_path_loads_the_file_and_the_bare_name_the_builtin(self, tmp_path, monkeypatch):
        # a file named "regular" that holds an atom: the bare name is the
        # built-in, the path with a directory part is the file
        s = support_of_divisors(4)
        reg, atom = regular_module(s), atomic_module(2, 1, s)
        (tmp_path / "regular").write_text(dumps_canonical(module_to_json(atom)))
        monkeypatch.chdir(tmp_path)
        seen = []
        for spec, x in [("regular", reg), ("./regular", atom)]:
            code, text = run(["hom", "--support", "divisors:4", "--source", spec,
                              "--format", "json"])
            assert code == 0 and json.loads(text)["values"]["dim"] == hom_direct(x, reg).dimension
            code, text = run(["lim", "--support", "divisors:4", "--source", spec,
                              "--max-degree", "1", "--format", "json"])
            dims = json.loads(text)["values"]["dims"]
            assert code == 0 and dims == lim_derived(dual_system(x), 1).dims
            seen.append(dims)
        assert seen[0] != seen[1]
        code, text = run(["validate", "--support", "divisors:4", "--source", "./regular"])
        assert code == 0 and text.splitlines()[-1] == "overall: ok"

    def test_builtin_names_are_the_constructible_ones(self):
        for name in ["regular", "tauRU", "free:3", "semifree:2", "atomic:4:2", "random:0"]:
            assert is_builtin_name(name), name
        for name in ["free", "free:x", "free:1:2", "atomic:1", "atomic:1:x", "random",
                     "regular:1", "tauRU:2", "bogus", ""]:
            assert not is_builtin_name(name), name


class TestParseSupport:
    def test_divisors_form(self):
        assert list(parse_support("divisors:12")) == [1, 2, 3, 4, 6, 12]

    def test_upto_form(self):
        assert list(parse_support("upto:4")) == [1, 2, 3, 4]

    def test_explicit_lists(self):
        assert list(parse_support("1,2,4,8")) == [1, 2, 4, 8]
        with pytest.raises(ValueError):
            parse_support("2,4")
        with pytest.raises(ValueError):
            parse_support("nonsense")

    @pytest.mark.parametrize("spec", ["divisors:x", "upto:x", "divisors:", "upto:1.5", "1,x"])
    def test_malformed_specs_name_the_spec(self, spec):
        with pytest.raises(ValueError, match=re.escape(f"malformed support spec {spec!r}")):
            parse_support(spec)
        code, text = run(["tau-ru", "--support", spec])
        assert code == 1 and f"error: malformed support spec {spec!r}" in text

    @pytest.mark.parametrize("argv", [["validate", "--source", "regular"],
                                      ["hom", "--source", "regular"],
                                      ["ext", "--source", "regular"],
                                      ["lim", "--source", "regular"],
                                      ["tau-ru"], ["normal-basis"], ["resolution"], ["report"]])
    @pytest.mark.parametrize("spec, error", [("divisors:0", "n must be positive"),
                                             ("1,x", "malformed support spec '1,x'")])
    def test_every_verb_refuses_a_bad_support(self, argv, spec, error):
        # ``run`` parses the support once, for every verb, before any work
        code, text = run([argv[0], "--support", spec, *argv[1:]])
        assert (code, text) == (1, f"[FAIL] error: {error}\noverall: FAILED")

    @pytest.mark.parametrize("spec", ["2,x", "x", "2;3", "2.0"])
    def test_malformed_primes_name_the_spec(self, spec):
        code, text = run(["resolution", "--support", "1,2", "--primes", spec])
        assert code == 1 and f"error: malformed primes spec {spec!r}" in text


class TestCliRuns:
    def test_validate_builtin(self):
        code, text = run(["validate", "--support", "divisors:12", "--source", "regular"])
        assert code == 0 and "PASS" in text

    def test_hom_example(self):
        code, text = run(["hom", "--support", "divisors:12", "--source", "tauRU",
                          "--target", "regular", "--format", "json"])
        assert code == 0
        out = json.loads(text)
        assert out["values"]["dim"] == 4
        assert out["values"]["results"]["dims"] == [4]
        assert len(out["values"]["results"]["witnesses"]) == 4
        assert {"name": "every basis morphism is equivariant and natural",
                "pass": True} in out["checks"]

    def test_ext_example(self):
        code, text = run(["ext", "--support", "1,2,3", "--source", "atomic:1:1",
                          "--max-degree", "2", "--format", "json"])
        assert code == 0
        assert json.loads(text)["values"]["dims"] == [0, 1, 0]

    def test_lim_verb(self):
        code, text = run(["lim", "--support", "1,2,3", "--source", "atomic:1:1",
                          "--max-degree", "2", "--format", "json"])
        assert code == 0
        assert json.loads(text)["values"]["dims"] == [0, 1, 0]

    def test_tau_ru_verb(self):
        code, text = run(["tau-ru", "--support", "divisors:12", "--format", "json"])
        assert code == 0
        dims = json.loads(text)["values"]["dims"]
        assert dims == {"1": 1, "2": 1, "3": 2, "4": 2, "6": 2, "12": 4}

    def test_normal_basis_verb(self):
        code, text = run(["normal-basis", "--support", "divisors:12",
                          "--format", "json", "--show-unscaled-failure"])
        assert code == 0
        out = json.loads(text)
        assert out["values"]["isomorphism"] is True
        assert out["values"]["unscaled_failing_squares"]

    def test_a_closed_pipe_exits_1_without_a_traceback(self):
        # `cycrep normal-basis ... | head -1`: the reader leaves after one
        # line of a 1.2 MB report
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = [sys.executable, "-m", "cycrep.cli", "normal-basis", "--support", "divisors:840",
                "--format", "json"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_resolution_verb(self):
        code, text = run(["resolution", "--support", "divisors:6", "--primes", "2,3",
                          "--max-degree", "2", "--format", "json"])
        assert code == 0
        out = json.loads(text)
        assert out["values"]["sign_convention"] == "1-based insertion position"

    def test_resolution_witnesses_stop_at_the_prime_count(self):
        # two primes: the complex ends in degree 2, so degree 3 has no witness
        code, text = run(["resolution", "--support", "divisors:6", "--primes", "2,3",
                          "--max-degree", "4"])
        assert code == 0, text
        assert re.findall(r"degree (\d+) witness", text) == ["1", "2"]

    def test_resolution_failures_are_reported_not_raised(self):
        # the default primes 2,3 do not divide level 5 of divisors(30)
        code, text = run(["resolution", "--support", "divisors:30"])
        assert code == 1
        assert "[FAIL] contraction at level 5" in text
        assert "[FAIL] exact at degree 0" in text
        assert "error:" not in text
        assert text.splitlines()[-1] == "overall: FAILED"

    def test_negative_atom_dimension_is_refused(self):
        code, text = run(["hom", "--support", "divisors:6", "--source", "atomic:2:-1"])
        assert code == 1
        assert "got d = -1" in text
        assert text.splitlines()[-1] == "overall: FAILED"

    def test_deterministic_output(self):
        argv = ["hom", "--support", "divisors:12", "--source", "regular",
                "--format", "json"]
        assert run(argv) == run(argv)

    @pytest.mark.parametrize("command, digest", [
        ("hom --support divisors:12 --source regular",
         "fc83905b42da91c585966a44829344dd52a2a71a5cfde5d0e6c4ab5c2beaaf29"),
        ("hom --support divisors:30 --source tauRU",
         "64002e916340f36b087da5d7c7b0fcf92e80e4364f7d856666ef00247c37ee3c"),
        ("lim --support divisors:30 --source regular --max-degree 2",
         "188767b2c7cdb0e70784eeeb530c4a941f1d12c4d0aa06f654b4ce06ef85f6a3"),
        ("lim --support 1,2,3 --source atomic:1:1 --max-degree 2",
         "34f8eec970b0e7e57c453619cc565c836fea42251842ed12d170d2f0f1b38581"),
        ("ext --support divisors:36 --source random:3 --max-degree 2",
         "0b7929ccf5126db3568d02ee511455c0dcfa3185e0db645b0c0367087b64f689"),
        ("resolution --support divisors:30 --primes 2,3,5 --max-degree 3",
         "895ab44dd4eb050f01784a022b0c1567602393d3741be280e160ffc713507345"),
        ("resolution --support divisors:1155 --primes 3,5,7,11 --max-degree 2",
         "0230ca127cd3bc4db9d21672c846b18a47adf9157a5365335f280533ab2cd7ee"),
        ("normal-basis --support divisors:840",
         "74d48834c4beb1222962554358877be2ee25b206e8ee46eb9dd1e02982f56d70"),
    ])
    def test_golden_json_output(self, command, digest):
        # sha256 of the canonical JSON report, pinned from the output of the
        # dense-matrix implementation; any change to a value, a key or the
        # formatting of a rational changes it
        code, text = run(command.split() + ["--format", "json"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, digest", [
        # (n, s) = (0, 5), source and target
        ("hom --support divisors:12 --source random:5 --target random:5 --format json",
         "6236ea91ffb7093c250bbb2b794b9e0def241a993f330bc5b3bb160b0574a745"),
        # (2, -1)
        ("hom --support divisors:6 --source random:1 --format json",
         "a57ef53e118a4b214b8e8790d3e1be0641b6f512d7d55e5d92a3bb1d46c60758"),
        ("ext --support divisors:12 --max-degree 2 --source random:1",
         "60b723f3f62d8b4b71ef75758ab1132b2af9fb364d4d4ffbfc46f8bcb79205c7"),
        ("ext --support divisors:12 --max-degree 2 --source random:1 --format json",
         "ea5fd0454455208768c3fccfcbaf33bdb58729df4bb934ab3bcdf028972d6410"),
        # (1, 3)
        ("lim --support divisors:12 --max-degree 2 --source random:4",
         "1882e15206734fcabc406f039c6d4633622a260d1cd943f8784446b85d5e6353"),
        ("lim --support divisors:12 --max-degree 2 --source random:4 --format json",
         "88794fb0fab3a495e2a930fa438fbba917b5c8f32ac820fffa6cd95ec93f1f06"),
        # report keeps --seed s, and its battery's random:i is seeded at s + i
        ("report --support divisors:12 --seed 7 --format json",
         "be36d8e9e6a6d09d384e359d17e332a366a0a16f395539649f2447f7a657037a"),
        ("report --support divisors:12 --seed -2 --max-degree 1 --format json",
         "4674e9bbce7e6bd081b773d6c6d29dea259360b7daa0f9a2c0b4f1e854f6d9c2"),
    ])
    def test_random_operands_spell_their_seed(self, command, digest):
        # sha256 of the report written for `--seed s --source random:n` (and
        # `--target random:n`) while the operand verbs took --seed: the
        # operand random:{s+n} is the same module, so the bytes are the same.
        # The report pins are that verb's output before its battery reused
        # the regular module and each operand's dual system
        code, text = run(command.split())
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_exit_code_on_failure(self):
        # a module file whose support mismatches the request fails loudly
        code, text = run(["validate", "--support", "divisors:12",
                          "--source", "no-such-module"])
        assert code == 1 and "error" in text

    @pytest.mark.parametrize("argv", [
        ["resolution", "--support", "divisors:6", "--max-degree", "0"],
        ["ext", "--support", "divisors:6", "--source", "regular", "--max-degree", "-1"],
        ["lim", "--support", "divisors:6", "--source", "regular", "--max-degree", "-1"],
        ["report", "--support", "divisors:6", "--max-degree", "-1"],
    ])
    def test_degrees_below_the_minimum_are_refused(self, argv):
        code, text = run(argv)
        assert code == 1
        assert "[FAIL] error: " in text
        assert text.splitlines()[-1] == "overall: FAILED"

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_resolution_degree_is_refused_before_building(self, degree):
        code, text = run(["resolution", "--support", "divisors:30", "--primes", "",
                          "--max-degree", degree])
        assert code == 1
        assert "[FAIL] error: the resolution must be built to degree at least 1" in text

    def test_resolution_builds_its_complex_once(self, monkeypatch):
        # the checks and every witness read one complex, built to --max-degree
        import cycrep.cli as cli
        built = []

        def counted(primes, max_degree, support):
            built.append(max_degree)
            return build_complex(primes, max_degree, support)

        monkeypatch.setattr(cli, "build_complex", counted)
        code, text = run(["resolution", "--support", "divisors:30", "--primes", "2,3,5",
                          "--max-degree", "5"])
        assert code == 0
        assert text.count("witness cocycle is nontrivial") == 3
        assert built == [5]

    @pytest.mark.parametrize("primes, problem", [
        ("1", "[1]"), ("2,4", "[4]"), ("", "no ambient primes"), (",", "no ambient primes"),
    ])
    def test_ambient_primes_are_checked(self, primes, problem):
        code, text = run(["resolution", "--support", "divisors:30", "--primes", primes,
                          "--max-degree", "1"])
        assert code == 1
        assert problem in text
        assert text.splitlines()[-1] == "overall: FAILED"

    def test_size_cap(self):
        code, text = run(["hom", "--support", "divisors:60", "--source", "regular",
                          "--size-cap", "10"])
        assert code == 1 and "cap" in text

    def test_size_cap_estimate_is_the_hom_direct_shape(self, monkeypatch):
        # the terms of the one sparse system, counted entry by entry: a row
        # per generator and level-map entry, and per covering pair and entry
        # of a level-m-by-level-n map; the system hom_direct hands to
        # sparse_kernel stores no more nonzeros than that.  The rows arrive
        # as a stream, so they are counted as they pass through to the kernel
        import cycrep.hom_ext as hom_ext
        stored = []
        kernel = hom_ext.sparse_kernel

        def counted_kernel(rows, ncols):
            stored.append(0)

            def counted():
                for row in rows:
                    stored[-1] += sum(1 for v in row.values() if v)
                    yield row
            return kernel(counted(), ncols)

        monkeypatch.setattr(hom_ext, "sparse_kernel", counted_kernel)
        s12, s30 = support_of_divisors(12), support_of_divisors(30)
        pairs = [(regular_module(s12), regular_module(s12)),
                 (random_module(s12, 4), regular_module(s12)),
                 (direct_sum([free_module(3, s12), semifree_module(2, s12)]),
                  random_module(s12, 7)),
                 (atomic_module(6, 2, s30), random_module(s30, 2)),
                 (random_module(s30, 5), regular_module(s30))]
        for x, y in pairs:
            terms = 0
            for n in x.support:
                dx, dy = x.dim(n), y.dim(n)
                for g in units(n).generators():
                    ax, ay = x.action(n, g), y.action(n, g)
                    for i in range(dy):
                        for j in range(dx):
                            terms += sum(1 for s in range(dy) if ay[i, s])
                            terms += sum(1 for t in range(dx) if ax[t, j])
            for n, m in x.support.covering_pairs():
                rx, ry = x.restriction_step(n, m), y.restriction_step(n, m)
                for i in range(y.dim(m)):
                    for j in range(x.dim(n)):
                        terms += sum(1 for s in range(y.dim(n)) if ry[i, s])
                        terms += sum(1 for t in range(x.dim(m)) if rx[t, j])
            assert _estimate_hom_entries(x, y) == terms, (x.name, y.name)
            stored.clear()
            hom_direct(x, y)
            assert stored and stored[0] <= terms, (x.name, y.name)

    def test_size_cap_admits_360_and_refuses_1260(self):
        # the one sparse system: 37612 and 169508 nonzeros over divisors of
        # 180 and 360; the dense naturality system it replaced was about
        # 6.0 million entries over divisors(360)
        for n, entries in [(180, 37612), (360, 169508)]:
            reg = regular_module(support_of_divisors(n))
            assert _estimate_hom_entries(reg, reg) == entries
        # over divisors(1260) the estimate is the streamed system's count
        reg = regular_module(support_of_divisors(1260))
        offsets, _ = _offsets(reg.support, lambda n: reg.dim(n) ** 2)
        assert sum(map(len, _hom_rows(reg, reg, offsets))) == 1868392
        code, text = run(["hom", "--support", "divisors:1260", "--source", "regular"])
        assert code == 1 and "about 1868392 matrix entries" in text

    def test_ext_and_lim_run_under_the_default_cap(self):
        # the cap charges the sparse nerve complex, not a dense Hom system
        s132, s360 = support_of_divisors(132), support_of_divisors(360)
        assert _estimate_nerve_entries(regular_module(s132), 2) == 9331
        assert _estimate_nerve_entries(regular_module(s360), 3) == 88132
        for argv in [["ext", "--support", "divisors:132", "--source", "regular",
                      "--max-degree", "2"],
                     ["lim", "--support", "divisors:360", "--source", "regular",
                      "--max-degree", "3"]]:
            code, text = run(argv)
            assert code == 0 and text.endswith("overall: ok"), text
            code, text = run(argv + ["--size-cap", "9000"])
            assert code == 1 and "the nerve complex would allocate" in text

    def test_nerve_estimate_bounds_the_stored_nonzeros(self):
        s12, s30 = support_of_divisors(12), support_of_divisors(30)
        s_nd = SupportSet([1, 2, 3, 5, 6, 10, 15])
        cases = [(regular_module(s12), 3), (random_module(s30, 5), 3),
                 (atomic_module(1, 1, s_nd), 3), (random_module(s_nd, 6), 2),
                 (direct_sum([free_module(3, s12), semifree_module(2, s12)]), 3)]
        for x, k in cases:
            stored = sum(len(row) for d in lim_derived(dual_system(x), k).complex.diffs
                         for row in d.data)
            assert 0 < stored <= _estimate_nerve_entries(x, k), x.name

    def test_report_verb_small(self):
        code, text = run(["report", "--support", "divisors:6", "--max-degree", "2",
                          "--format", "json", "--seed", "3"])
        assert code == 0, text
        out = json.loads(text)
        assert out["ok"] is True

    def test_report_tower_check_can_fail(self, monkeypatch):
        # one map of the dual regular tower replaced by zero: lim^1 stays 0,
        # so the check fails through the Mittag-Leffler flag alone
        import cycrep.cli as cli
        real = cli.tower_along_chain

        def zeroed(d, chain):
            dims, maps = real(d, chain)
            maps[-1] = QMatrix.zeros(*maps[-1].shape())
            return dims, maps

        monkeypatch.setattr(cli, "tower_along_chain", zeroed)
        code, text = run(["report", "--support", "divisors:6", "--max-degree", "1"])
        assert code == 1 and text.splitlines()[-1] == "overall: FAILED"
        assert "[FAIL] dual regular tower has vanishing lim1" in text
        assert [line for line in text.splitlines() if line.startswith("[FAIL]")] == \
            [line for line in text.splitlines() if "tower" in line]


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def documented_invocations() -> list[list[str]]:
    """The CLI argument lists in the README, demo 07 and the CI smoke step."""
    with open(os.path.join(REPO, "README.md")) as fh:
        out = [line.split()[1:] for line in fh if line.startswith("cycrep ")]
    with open(os.path.join(REPO, "demos", "07_command_line_reports.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "INVOCATIONS":
            out.extend(ast.literal_eval(node.value))
    with open(os.path.join(REPO, ".github", "workflows", "tests.yml")) as fh:
        out.extend(m.split() for m in re.findall(r'"([a-z-]+ --support [^"]*)"', fh.read()))
    return out


class TestVerbOptions:
    """Each verb accepts only the options it reads."""

    @pytest.mark.parametrize("verb, option", [
        ("validate", "--size-cap"), ("tau-ru", "--size-cap"), ("normal-basis", "--size-cap"),
        ("resolution", "--size-cap"), ("report", "--size-cap"),
        ("tau-ru", "--prefer-file"), ("normal-basis", "--prefer-file"),
        ("resolution", "--prefer-file"), ("report", "--prefer-file"),
        ("tau-ru", "--seed"), ("normal-basis", "--seed"), ("resolution", "--seed"),
        # the operand spells both: random:n its seed, ./name a file
        ("validate", "--seed"), ("hom", "--seed"), ("ext", "--seed"), ("lim", "--seed"),
        ("validate", "--prefer-file"), ("hom", "--prefer-file"), ("ext", "--prefer-file"),
        ("lim", "--prefer-file"),
    ])
    def test_unread_options_are_refused(self, verb, option):
        argv = [verb, "--support", "divisors:6", option]
        if option != "--prefer-file":
            argv.append("5")
        if verb in ("validate", "hom", "ext", "lim"):
            argv += ["--source", "regular"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_documented_invocations_parse(self):
        argvs = documented_invocations()
        verbs = {argv[0] for argv in argvs}
        assert {"validate", "hom", "ext", "lim", "tau-ru", "normal-basis", "resolution",
                "report"} <= verbs
        for argv in argvs:
            build_parser().parse_args(argv)


VERBS = ["validate", "hom", "ext", "lim", "tau-ru", "normal-basis", "resolution", "report"]


def _parser_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestOneVerbParser:
    """A parser built for the verb in argv[0] holds only that verb, and
    prints its help and errors as the full parser does."""

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("rest", [["-h"], [], ["--support", "divisors:6", "--bogus", "1"]])
    def test_help_and_errors_match_the_full_parser(self, verb, rest, capsys):
        argv = [verb] + rest
        got = _parser_outcome(build_parser(argv), argv, capsys)
        assert got == _parser_outcome(build_parser(), argv, capsys)
        assert got[0] in (0, 2) and (got[1] or got[2])

    def test_report_help_names_the_degree_cap(self, capsys):
        # _cmd_report runs Ext and the derived limits to min(--max-degree, 2)
        argv = ["report", "--help"]
        code, out, _ = _parser_outcome(build_parser(argv), argv, capsys)
        assert code == 0 and "min(MAX_DEGREE, 2)" in " ".join(out.split())

    @pytest.mark.parametrize("verb", VERBS)
    def test_only_that_verb_is_built(self, verb, capsys):
        other = "tau-ru" if verb != "tau-ru" else "hom"
        parser = build_parser([verb])
        code, _, err = _parser_outcome(parser, [other, "--support", "divisors:6"], capsys)
        assert code == 2 and "invalid choice" in err

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"], ["--format", "json"]])
    def test_anything_else_gets_the_full_parser(self, argv, capsys):
        got = _parser_outcome(build_parser(argv), argv, capsys)
        assert got == _parser_outcome(build_parser(), argv, capsys)
        parser = build_parser(argv)
        for verb in VERBS:
            assert parser.parse_args([verb, "--support", "divisors:6", "--source", "x"]
                                     if verb in ("validate", "hom", "ext", "lim")
                                     else [verb, "--support", "divisors:6"]).verb == verb
