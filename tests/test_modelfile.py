"""Tests for the YAML model format: parsing, validation and round trips."""

import copy
import importlib.resources

import numpy as np
import pytest
import yaml

from uncreach import (
    ModelFileError,
    load_model,
    model_to_dict,
    parse_model,
    save_model,
    serialize_model,
)
from uncreach import modelfile
from uncreach.intervals import _add_outward

MINIMAL = """\
name: tiny
dimension: 1
dynamics:
  matrix: [1.0]
  continuous: false
uncertainty: []
initial:
  box:
    - [0.0, 1.0]
horizon: 3
"""

EVERY_KEY = """\
name: every-key
dimension: 2
dynamics:
  matrix: [0.5, 0.1, 0.0, 0.5]
  continuous: true
  step: 0.1
uncertainty:
  - {row: 0, col: 0, relative: 0.1}
  - {row: 0, col: 1, interval: [0.0, 0.2]}
initial:
  box:
    - [0.0, 1.0]
    - [-1.0, 1.0]
unsafe:
  - {normal: [1.0, 0.0], offset: 2.0}
horizon: 3
reduction:
  method: interval
  period: 2
"""
# what a hand-edited file may hold where a value is expected
REPLACEMENTS = yaml.safe_load(
    '["x", "1.5", true, false, null, [], {}, .nan, .inf, -1, 0, 2.5, 3, '
    '[1.0], {a: 1}, "", [[1.0, 2.0]]]')
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # the C one is faster


class PureLoader(yaml.SafeLoader):
    """modelfile's loader in pure Python, the one of a PyYAML built
    without libyaml: SafeLoader with _Loader's YAML 1.2 float resolver."""

    yaml_implicit_resolvers = modelfile._Loader.yaml_implicit_resolvers


@pytest.fixture(autouse=True)
def both_loaders(monkeypatch):
    """Every document a test here gives parse_model is read by the pure
    loader too, which must give the same data, or a YAML error where
    _Loader gives one: so each case's model, or ModelFileError, is the
    same under both loaders."""
    load = yaml.load

    def checked(stream, Loader):
        if Loader is not modelfile._Loader:
            return load(stream, Loader)
        try:
            pure = repr(load(stream, PureLoader))
        except yaml.YAMLError:
            pure = yaml.YAMLError
        try:
            data = load(stream, Loader)
        except yaml.YAMLError:
            assert pure is yaml.YAMLError, stream
            raise
        assert pure == repr(data), stream
        return data

    monkeypatch.setattr(yaml, "load", checked)


def node_paths(node, path=()):
    """Key/index paths of every mapping value and list entry below node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def shipped(name):
    return importlib.resources.files("uncreach") / "models" / name


def edited(text, old, new):
    assert old in text
    return text.replace(old, new)


class TestParseModel:
    def test_minimal_discrete(self):
        m = parse_model(MINIMAL)
        assert m.name == "tiny"
        assert not m.continuous
        assert m.horizon == 3
        assert m.unsafe == ()
        assert m.reduction_method == "none"

    def test_shipped_files_load(self):
        for name in ("girad1.yaml", "grow1d.yaml", "twocell.yaml", "acc4.yaml"):
            m = load_model(shipped(name))
            assert m.dim >= 1
            assert m.horizon >= 1

    def test_girad_fields(self):
        m = load_model(shipped("girad1.yaml"))
        assert m.dim == 2
        assert np.array_equal(m.a, np.array([[-1.0, -4.0], [4.0, -1.0]]))
        assert m.continuous and m.step == 0.01
        assert len(m.uncertainty) == 2
        assert m.uncertainty[0].relative == 0.02
        assert m.reduction_method == "interval"
        assert m.reduction_period == 500
        lam = _add_outward(m.a, m.perturbation())
        assert lam.lo[0, 0] == pytest.approx(-1.02)
        assert lam.hi[1, 0] == pytest.approx(4.08)

    def test_twocell_interval_form(self):
        m = load_model(shipped("twocell.yaml"))
        cell = m.uncertainty[0]
        assert (cell.row, cell.col) == (0, 1)
        assert cell.interval == (-1.1, -0.9)
        lam = _add_outward(m.a, m.perturbation())
        assert lam.lo[0, 1] == -1.1 and lam.hi[0, 1] == -0.9

    def test_not_yaml(self):
        with pytest.raises(ModelFileError):
            parse_model("a: [unterminated")

    def test_not_a_mapping(self):
        with pytest.raises(ModelFileError):
            parse_model("- 1\n- 2\n")


class TestParseErrors:
    @pytest.mark.parametrize("key", ["name", "dimension", "dynamics",
                                     "initial", "horizon"])
    def test_missing_required_key(self, key):
        lines = [ln for ln in MINIMAL.splitlines(keepends=True)]
        if key == "dynamics":
            text = MINIMAL.replace(
                "dynamics:\n  matrix: [1.0]\n  continuous: false\n", "")
        elif key == "initial":
            text = MINIMAL.replace("initial:\n  box:\n    - [0.0, 1.0]\n", "")
        else:
            text = "".join(ln for ln in lines if not ln.startswith(f"{key}:"))
        with pytest.raises(ModelFileError) as exc:
            parse_model(text)
        assert key in str(exc.value)

    def test_matrix_wrong_length(self):
        with pytest.raises(ModelFileError) as exc:
            parse_model(edited(MINIMAL, "matrix: [1.0]", "matrix: [1.0, 2.0]"))
        assert "matrix" in str(exc.value)

    def test_matrix_non_numeric(self):
        with pytest.raises(ModelFileError):
            parse_model(edited(MINIMAL, "matrix: [1.0]", "matrix: [fast]"))

    def test_matrix_rejects_nan(self):
        with pytest.raises(ModelFileError):
            parse_model(edited(MINIMAL, "matrix: [1.0]", "matrix: [.nan]"))

    def test_initial_box_rejects_inf(self):
        with pytest.raises(ModelFileError):
            parse_model(edited(MINIMAL, "- [0.0, 1.0]", "- [0.0, .inf]"))

    def test_initial_box_wrong_rows(self):
        with pytest.raises(ModelFileError):
            parse_model(edited(MINIMAL, "- [0.0, 1.0]",
                               "- [0.0, 1.0]\n    - [0.0, 1.0]"))

    def test_horizon_zero(self):
        with pytest.raises(ModelFileError) as exc:
            parse_model(edited(MINIMAL, "horizon: 3", "horizon: 0"))
        assert "horizon" in str(exc.value)

    def test_horizon_not_integer(self):
        with pytest.raises(ModelFileError):
            parse_model(edited(MINIMAL, "horizon: 3", "horizon: 2.5"))

    def test_continuous_requires_step(self):
        with pytest.raises(ModelFileError) as exc:
            parse_model(edited(MINIMAL, "continuous: false", "continuous: true"))
        assert "step" in str(exc.value)

    def test_discrete_rejects_step(self):
        with pytest.raises(ModelFileError) as exc:
            parse_model(edited(MINIMAL, "continuous: false",
                               "continuous: false\n  step: 0.1"))
        assert "step" in str(exc.value)

    def test_uncertainty_needs_one_form(self):
        bad = edited(MINIMAL, "uncertainty: []",
                     "uncertainty:\n  - {row: 0, col: 0}")
        with pytest.raises(ModelFileError):
            parse_model(bad)
        bad = edited(MINIMAL, "uncertainty: []",
                     "uncertainty:\n  - {row: 0, col: 0, relative: 0.1, interval: [0.0, 2.0]}")
        with pytest.raises(ModelFileError):
            parse_model(bad)

    def test_uncertainty_out_of_range(self):
        bad = edited(MINIMAL, "uncertainty: []",
                     "uncertainty:\n  - {row: 1, col: 0, relative: 0.1}")
        with pytest.raises(ModelFileError):
            parse_model(bad)

    @pytest.mark.parametrize("cell,message", [
        ("{row: 0, col: 0, relative: 0.2}", "uncertainty[1]: cell (0,0) listed twice"),
        ("{row: 2, col: 0, relative: 0.2}",
         "uncertainty[1]: cell (2,0) out of range for dimension 2"),
        ("{row: 1, col: 0.5, relative: 0.2}",
         "uncertainty[1]: cell (1,0.5) indices must be integers")])
    def test_cell_errors_name_the_position(self, cell, message):
        bad = edited(EVERY_KEY, "  - {row: 0, col: 1, interval: [0.0, 0.2]}",
                     f"  - {cell}")
        with pytest.raises(ModelFileError) as exc:
            parse_model(bad)
        assert str(exc.value) == message

    def test_non_finite_matrix_entry_is_named(self):
        bad = edited(EVERY_KEY, "matrix: [0.5, 0.1, 0.0, 0.5]",
                     "matrix: [0.5, 0.1, -.inf, .nan]")
        with pytest.raises(ModelFileError) as exc:
            parse_model(bad)
        assert str(exc.value) == "dynamics matrix entry (1,0) must be finite, got -inf"

    def test_unsafe_normal_length(self):
        bad = MINIMAL + "unsafe:\n  - {normal: [1.0, 0.0], offset: 1.0}\n"
        with pytest.raises(ModelFileError):
            parse_model(bad)

    def test_unknown_reduction_method(self):
        bad = MINIMAL + "reduction:\n  method: lp\n  period: 10\n"
        with pytest.raises(ModelFileError) as exc:
            parse_model(bad)
        assert "reduction" in str(exc.value)

    def test_bad_reduction_period(self):
        bad = MINIMAL + "reduction:\n  method: interval\n  period: 0\n"
        with pytest.raises(ModelFileError):
            parse_model(bad)


class TestStrictValues:
    # true, "1.5" and unsafe: false used to pass as 1.0, 1.5 and no unsafe sets
    def test_bool_in_a_number_place(self):
        for old, new in (("matrix: [1.0]", "matrix: [true]"),
                         ("- [0.0, 1.0]", "- [false, 1.0]")):
            with pytest.raises(ModelFileError, match="expected a number"):
                parse_model(edited(MINIMAL, old, new))
        for cell in ("{row: 0, col: 0, relative: true}",
                     "{row: 0, col: 0, interval: [0.5, true]}"):
            with pytest.raises(ModelFileError, match=r"uncertainty\[0\]"):
                parse_model(edited(MINIMAL, "uncertainty: []",
                                   f"uncertainty:\n  - {cell}"))
        with pytest.raises(ModelFileError, match=r"unsafe\[0\].offset"):
            parse_model(MINIMAL + "unsafe:\n  - {normal: [1.0], offset: false}\n")

    def test_integer_beyond_float_range(self):
        huge = "1" + "0" * 400
        with pytest.raises(ModelFileError,
                           match=r"dynamics.matrix: expected a number, got 10{400}$"):
            parse_model(edited(MINIMAL, "matrix: [1.0]", f"matrix: [{huge}]"))

    def test_string_in_a_number_place(self):
        for value in ('"1.5"', "'2'", '"1e-3"'):
            with pytest.raises(ModelFileError, match="expected a number"):
                parse_model(edited(MINIMAL, "matrix: [1.0]", f"matrix: [{value}]"))
        # YAML 1.2 exponents, which PyYAML's YAML 1.1 rules read as strings
        for value, number in (("1e-3", 1e-3), ("1.0e3", 1e3), ("-2E+1", -20.0),
                              (".5e1", 5.0), ("1.0e-3", 1e-3)):
            m = parse_model(edited(MINIMAL, "matrix: [1.0]", f"matrix: [{value}]"))
            assert m.a[0, 0] == number
        bad = edited(MINIMAL, "continuous: false", 'continuous: true\n  step: "0.1"')
        with pytest.raises(ModelFileError, match="dynamics.step"):
            parse_model(bad)

    def test_number_like_name_round_trips(self):
        # a name that YAML 1.2 reads as a float is written quoted
        for name in ("1e5", "1.0e3", "-2E+1", "12", "tiny"):
            m = parse_model(MINIMAL.replace("name: tiny", f"name: '{name}'"))
            assert parse_model(serialize_model(m)).name == name

    def test_falsy_block_is_not_an_absent_one(self):
        base = MINIMAL.replace("uncertainty: []\n", "")
        for key in ("uncertainty", "unsafe", "reduction"):
            for value in ("false", "0", '""', "{}" if key != "reduction" else "[]"):
                with pytest.raises(ModelFileError, match=key):
                    parse_model(base + f"{key}: {value}\n")
            # only a missing or null block is empty
            for text in (base, base + f"{key}:\n", base + f"{key}: null\n"):
                m = parse_model(text)
                assert m.uncertainty == () and m.unsafe == ()
                assert m.reduction_method == "none"


class TestMalformedDocuments:
    def test_every_edit_parses_or_is_a_model_file_error(self):
        # each node replaced by each value or deleted: the reader either
        # accepts the document or names the key, it never crashes (a scalar
        # where the uncertainty or unsafe list belongs used to raise
        # TypeError)
        doc = yaml.safe_load(EVERY_KEY)
        model_to_dict(parse_model(EVERY_KEY))
        delete = object()
        edits = 0
        for path in node_paths(doc):
            for value in REPLACEMENTS + [delete]:
                edit = copy.deepcopy(doc)
                parent = edit
                for key in path[:-1]:
                    parent = parent[key]
                if value is delete:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(value)
                try:
                    model_to_dict(parse_model(yaml.dump(edit, Dumper=DUMPER)))
                except ModelFileError:
                    pass
                edits += 1
        assert edits == 39 * 18


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["girad1.yaml", "grow1d.yaml",
                                      "twocell.yaml", "acc4.yaml"])
    def test_serialize_parse_identity(self, name):
        m = load_model(shipped(name))
        again = parse_model(serialize_model(m))
        assert model_to_dict(again) == model_to_dict(m)

    def test_save_and_load(self, tmp_path):
        m = load_model(shipped("twocell.yaml"))
        out = tmp_path / "copy.yaml"
        save_model(m, out)
        again = load_model(out)
        assert model_to_dict(again) == model_to_dict(m)
        assert np.array_equal(again.a, m.a)

    def test_dict_shape(self):
        m = parse_model(MINIMAL)
        d = model_to_dict(m)
        assert d["name"] == "tiny"
        assert d["dimension"] == 1
        assert d["dynamics"] == {"matrix": [1.0], "continuous": False}
        assert d["initial"] == {"box": [[0.0, 1.0]]}
        assert d["horizon"] == 3


class TestLoadModel:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError):
            load_model(tmp_path / "nope.yaml")


class TestLoaders:
    def test_libyaml_where_pyyaml_has_it(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(modelfile._Loader, base)

    def test_pure_loader_reads_the_same_models(self, monkeypatch):
        # the shipped files and this module's documents, parsed with the
        # pure loader forced, give the models of the default loader
        texts = [shipped(name).read_text() for name in (
            "girad1.yaml", "grow1d.yaml", "twocell.yaml", "acc4.yaml")]
        texts += [MINIMAL, EVERY_KEY, edited(EVERY_KEY, "0.1}", "1e-1}"),
                  edited(EVERY_KEY, "step: 0.1", "step: 1.0e-1")]
        want = [model_to_dict(parse_model(text)) for text in texts]
        monkeypatch.setattr(modelfile, "_Loader", PureLoader)
        assert [model_to_dict(parse_model(text)) for text in texts] == want
        assert want[-1]["dynamics"]["step"] == 0.1
        with pytest.raises(ModelFileError, match="not valid YAML"):
            parse_model("a: [unterminated")
