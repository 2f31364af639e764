"""The matrix codec of `ldckit.io`: documents in base64 round-trip every
finite matrix, malformed ones are refused with `SchemaError`, and documents
in the older `data` form of [re, im] pairs (written by `io_oracle`) read to
the same matrices."""
from __future__ import annotations

import base64
import importlib.util
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import dagger_box, generator, identity, isomorphic, seq
from ldckit.errors import CircuitSyntaxError, SchemaError
from ldckit.fixtures import BUILTIN, fixture_names, load_gadget
from ldckit.gadget import gadget_from_json, gadget_to_json
from ldckit.io import matrix_from_json, matrix_to_json, parse, serialize
from ldckit.objects import Atom, Dagger

import io_oracle

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "snapshot_suite_residuals",
    ROOT / "scripts" / "snapshot_suite_residuals.py")
snap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snap)

TINY = 5e-324            # the least positive subnormal
SUBNORMAL = 2.5e-310
entries = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, TINY, -TINY, SUBNORMAL, 1.0]))


@st.composite
def matrices(draw):
    """A real or a complex matrix of up to 4 x 4 entries, empty shapes
    included, with signed zeros and subnormals among its entries."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = rows * cols
    re = draw(st.lists(entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        return np.array(re, dtype=float).reshape(rows, cols)
    m = np.empty(n, dtype=complex)
    m.real = re
    m.imag = draw(st.lists(entries, min_size=n, max_size=n))
    return m.reshape(rows, cols)


def through_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(m=matrices())
    def test_round_trip(self, m):
        doc = through_json(matrix_to_json(m))
        real = not np.count_nonzero(m.imag)
        assert doc["dtype"] == ("float64" if real else "complex128")
        got = matrix_from_json(doc)
        assert got.dtype == (float if real else complex)
        assert got.shape == m.shape
        # real parts bit for bit, signed zeros and subnormals included
        assert np.array_equal(bits(got.real), bits(m.real))
        # a -0.0 imaginary part of a real matrix reads back as +0.0
        assert np.array_equal(got.imag, m.imag)
        if not real:
            assert np.array_equal(bits(got.imag), bits(m.imag))

    def test_entries_are_little_endian_and_row_major(self):
        doc = matrix_to_json(np.array([[1.0, 2.0], [3.0, -0.0]]))
        assert doc == {"rows": 2, "cols": 2, "dtype": "float64",
                       "base64": base64.b64encode(struct.pack(
                           "<4d", 1.0, 2.0, 3.0, -0.0)).decode()}
        doc = matrix_to_json(np.array([[1 + 2j, 3j]]))
        assert doc["dtype"] == "complex128"
        assert base64.b64decode(doc["base64"]) == struct.pack(
            "<4d", 1.0, 2.0, 0.0, 3.0)

    def test_lists_and_integers_are_written(self):
        assert matrix_from_json(matrix_to_json([[1, 2]])).tolist() \
            == [[1, 2]]

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 1)])
    def test_writer_needs_two_dimensions(self, shape):
        with pytest.raises(SchemaError, match="two-dimensional"):
            matrix_to_json(np.zeros(shape))

    def test_read_matrix_is_writable(self):
        m = matrix_from_json(matrix_to_json(np.eye(2)))
        m[0, 0] = 2
        assert m[0, 0] == 2


def _valid() -> dict:
    """A 1 x 2 real matrix document: 16 bytes, 24 base64 characters."""
    return matrix_to_json(np.array([[1.0, 2.0]]))


def _payload(*values: float, fmt: str = "<2d") -> str:
    return base64.b64encode(struct.pack(fmt, *values)).decode()


MALFORMED = {
    "dtype float32": {"dtype": "float32"},
    "dtype missing": {"dtype": None},
    "dtype a list": {"dtype": ["float64"]},
    "base64 a number": {"base64": 16},
    "base64 a list": {"base64": [_payload(1, 2)]},
    "bad character": {"base64": "AAAAAAAA8D8AAAAAAAAAQ*=="},
    "white space": {"base64": "AAAAAAAA8D8AAAAAAAAA QA="},
    "not ascii": {"base64": "AAAAAAAA8D8AAAAAAAAAQé=="},
    "padding dropped": {"base64": "AAAAAAAA8D8AAAAAAAAAQA"},
    "padding short": {"base64": "AAAAAAAA8D8AAAAAAAAAQA="},
    "padding extra": {"base64": "AAAAAAAA8D8AAAAAAAAAQA==="},
    "padding inside": {"base64": "AAAAAAAA8D8=AAAAAAAAQA=="},
    "no padding where due": {"base64": "AAAAAAAA8D8AAAAAAAAAQAAA"},
    "padding after a full group": {"cols": 3, "base64": _payload(
        1, 2, 3, fmt="<3d") + "=="},
    "one entry short": {"base64": _payload(1.0, fmt="<d")},
    "one entry long": {"base64": _payload(1, 2, 3, fmt="<3d")},
    "real payload as complex": {"dtype": "complex128"},
    "complex payload as real": {"base64": _payload(1, 2, 3, 4, fmt="<4d"),
                                "dtype": "float64", "cols": 1},
    "infinite entry": {"base64": _payload(1.0, math.inf)},
    "nan entry": {"base64": _payload(math.nan, 2.0)},
    "nan imaginary part": {"dtype": "complex128", "cols": 1,
                           "base64": _payload(1.0, math.nan)},
    "both encodings": {"data": [[1, 0], [2, 0]]},
    "neither encoding": {"base64": None},
    "rows negative": {"rows": -1},
    "cols a bool": {"cols": True},
    "rows a string": {"rows": "1"},
    "rows missing": {"rows": None},
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED)
def test_malformed_document_is_refused(edit):
    doc = _valid()
    for key, value in edit.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    with pytest.raises(SchemaError):
        matrix_from_json(through_json(doc))


def test_refusal_does_not_repeat_the_entries():
    doc = {"cols": 1, "base64": "A" * 10 ** 5}
    with pytest.raises(SchemaError) as exc:
        matrix_from_json(doc)
    assert len(str(exc.value)) < 100


def test_valid_document_is_read():
    assert matrix_from_json(_valid()).tolist() == [[1, 2]]


@pytest.mark.parametrize("data", [b"\xff\xfe", b'{"wires": "\xe9"}'])
def test_text_that_is_not_utf8_is_refused(data, tmp_path):
    # decoding ran outside the parsers' error handling and raised
    # UnicodeDecodeError
    with pytest.raises(CircuitSyntaxError, match="not UTF-8"):
        parse(data)
    path = tmp_path / "gadget.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match="not UTF-8"):
        load_gadget(str(path))


@pytest.mark.parametrize("data, circuit_error, gadget_error", [
    (b"\xff\xfe", "byte 0: not UTF-8 text (invalid start byte)", None),
    (b'{"wires": ', "line 1: Expecting value", None),
    (b"[" * 10 ** 5 + b"]" * 10 ** 5, "document nested too deeply",
     "gadget document nested too deeply")])
def test_both_readers_refuse_with_their_own_class(data, circuit_error,
                                                  gadget_error, tmp_path):
    with pytest.raises(CircuitSyntaxError) as err:
        parse(data)
    assert str(err.value) == circuit_error
    path = tmp_path / "gadget.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError) as err:
        load_gadget(str(path))
    assert str(err.value) == (gadget_error or circuit_error)


@pytest.mark.parametrize("encoding", ["base64", "data"])
def test_huge_shape_with_short_payload_allocates_nothing(encoding):
    doc = {"rows": 2 ** 40, "cols": 2 ** 40, "dtype": "complex128",
           "base64": _payload(1, 2)}
    if encoding == "data":
        doc["data"] = [[1, 2]]
        del doc["base64"]
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="rows\\*cols"):
            matrix_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


@pytest.mark.parametrize("name", fixture_names())
def test_builtin_gadget_is_its_builder_output(name):
    # a built-in by name is its builder's gadget, which its own document
    # reads back to: no second copy of it is kept
    loaded = load_gadget(name)
    doc = gadget_from_json(gadget_to_json(BUILTIN[name]()))
    assert loaded.kind == doc.kind
    assert loaded.objects == doc.objects
    assert loaded.env.atoms == doc.env.atoms
    assert loaded.env.degree == doc.env.degree == 3
    assert loaded.env == doc.env
    assert list(loaded.morphisms) == list(doc.morphisms)
    for role, m in doc.morphisms.items():
        got = loaded.morphism(role)
        assert (got.dtype, got.shape) == (m.dtype, m.shape), role
        assert got.tobytes() == m.tobytes(), role


def _fixture_script():
    """scripts/generate_fixtures.py, run now: its corpus is built after
    whatever this process has built before."""
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", ROOT / "scripts" / "generate_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_is_what_the_script_writes():
    identity([Atom("A")] * 100)   # the id counter is not where it was
    texts = _fixture_script().corpus()
    shipped = ROOT / "fixtures"
    assert set(texts) == {p.name for p in shipped.glob("*.json")}
    for name, text in texts.items():
        assert (shipped / name).read_text() == text, name


def test_renumbered_reaches_into_dagger_boxes():
    A, B = Atom("A"), Atom("B")
    inner = dagger_box(generator("h", [Dagger(B)], [Dagger(A)]))
    c = seq(generator("f", [A], [Dagger(B)]),
            dagger_box(seq(generator("g", [B], [A]), inner)))
    doc = _fixture_script().renumbered(json.loads(serialize(c)))
    ids = []

    def collect(d):
        ids.extend(w["id"] for w in d["wires"])
        for node in d["nodes"]:
            if "inner" in node:
                collect(node["inner"])
    collect(doc)
    assert ids == [f"w{i}" for i in range(len(ids))]
    assert isomorphic(parse(json.dumps(doc)), c)


def legacy_gadgets():
    """Every built-in gadget, zn:3, and every gadget of the residual
    snapshot, by name."""
    out = {name: load_gadget(name) for name in fixture_names()}
    out["zn:3"] = load_gadget("zn:3")
    out.update((f"snapshot-{name}", g)
               for name, (g, _) in snap.gadgets().items())
    return out


class TestLegacyReader:
    @pytest.fixture(scope="class")
    def gadgets(self):
        return legacy_gadgets()

    def test_both_encodings_read_to_the_same_gadget(self, gadgets):
        for name, g in gadgets.items():
            pairs = gadget_from_json(through_json(
                io_oracle.gadget_to_pair_json(g)))
            b64 = gadget_from_json(through_json(gadget_to_json(g)))
            assert pairs.morphisms.keys() == b64.morphisms.keys() \
                == g.morphisms.keys(), name
            for role, m in g.morphisms.items():
                assert pairs.morphisms[role].dtype \
                    == b64.morphisms[role].dtype == m.dtype, (name, role)
                assert np.array_equal(pairs.morphisms[role],
                                      b64.morphisms[role]), (name, role)
                assert np.array_equal(b64.morphisms[role], m), (name, role)
            assert pairs.objects == b64.objects == g.objects, name
            assert pairs.env == b64.env == g.env, name

    @settings(max_examples=200, deadline=None)
    @given(m=matrices())
    def test_pair_document_round_trip(self, m):
        doc = through_json(io_oracle.matrix_to_json(m))
        got = matrix_from_json(doc)
        assert np.array_equal(bits(got.real), bits(m.real))
        assert np.array_equal(got.imag, m.imag)
