"""One rule per argument kind.  A count (an integer, not a bool, at or
above a floor), a finite matrix, a matrix shape, a list of basis labels and
a tolerance are decided in `ldckit.errors` alone, and the atom table in the
`ModelEnv` constructor.  Every public function that takes one of them
refuses a bad one with an `LdcError`, a bad shape with `ShapeMismatch`
(`SchemaError` in a document), and reads a NumPy number as the Python
number it holds.  The tolerance table is checked against
`ldckit.__all__`: a public callable with a `tol` parameter and no entry
fails the test, as does any defaulted parameter missing from the option
table."""
from __future__ import annotations

import functools
import inspect
import math
import re
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import ldckit
from ldckit import exponential, structures
from ldckit.circuit import generator, permutation
from ldckit.errors import LdcError, SchemaError, ShapeMismatch
from ldckit.exponential import (bang_matrix, build_exp,
                                comonad_coassoc_report, comonoid_residual,
                                induce_bang_monoid, lift_flat, lift_sharp,
                                retract_idempotent)
from ldckit.fixtures import load_gadget
from ldckit.gadget import Gadget, gadget_from_json, gadget_to_json
from ldckit.io import matrix_from_json, matrix_to_json
from ldckit.model import (ModelEnv, evaluate, matrices_equal,
                          split_idempotent)
from ldckit.multiset import MultisetBasis
from ldckit.objects import Atom, Bang, type_from_json
from ldckit.structures import (complementary_from_idempotent,
                               split_binary_idempotent,
                               split_linear_comonoid, split_linear_monoid)
from ldckit.suites import SUITES, SuiteReport, check_suite

ROOT = Path(__file__).resolve().parent.parent
QUBIT = gadget_to_json(load_gadget("qubit-zx"))
# a count that is a bool, negative, no integer, a string, missing, and
# a NumPy integer
COUNTS = [True, -1, 2.5, "2", None, np.int64(2)]


def _doc(dim) -> dict:
    """The qubit-zx document with its atom's dim replaced, and its labels
    left to their default."""
    return QUBIT | {"atoms": {"Q": {"dim": dim}}}


def _matrix(**fields) -> dict:
    return {"rows": 1, "cols": 2, "data": [[1, 0], [2, 0]]} | fields


# (name, the call with a count in one of its places)
CALLS = {
    "ModelEnv dim": lambda n: ModelEnv(atoms={"A": (n, ("0", "1"))}),
    "ModelEnv degree": lambda n: ModelEnv(degree=n),
    "ModelEnv.make dim": lambda n: ModelEnv.make({"A": n}),
    "ModelEnv.make degree": lambda n: ModelEnv.make({"A": 2}, degree=n),
    "MultisetBasis degree": lambda n: MultisetBasis(["a", "b"], n),
    "build_exp base": lambda n: build_exp(n, 2),
    "build_exp degree": lambda n: build_exp(2, n),
    "comonad_coassoc_report base": lambda n: comonad_coassoc_report(n, 2),
    "comonad_coassoc_report degree": lambda n: comonad_coassoc_report(2, n),
    "induce_bang_monoid degree":
        lambda n: induce_bang_monoid(load_gadget("qubit-zx"), n),
    "retract_idempotent degree":
        lambda n: retract_idempotent(load_gadget("qubit-zx"), n),
    "gadget_from_json dim": lambda n: gadget_from_json(_doc(n)),
    "gadget_from_json document degree":
        lambda n: gadget_from_json(QUBIT | {"degree": n}),
    "gadget_from_json exponential document degree":
        lambda n: gadget_from_json(_induced_doc() | {"degree": n}),
    "induce_bang_monoid exponential degree":
        lambda n: induce_bang_monoid(gadget_from_json(_induced_doc()), n),
    "matrix_from_json rows":
        lambda n: matrix_from_json(_matrix(rows=n, cols=1)),
    "matrix_from_json cols": lambda n: matrix_from_json(_matrix(cols=n)),
    "split_idempotent entry": lambda n: split_idempotent([[n]]),
}


def _plain(x):
    """`x` as nested lists, dicts and (type name, value) pairs, so that
    equal results compare equal and an np.int64 differs from an int."""
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, Mapping):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [type(x).__name__] + [_plain(v) for v in x]
    if hasattr(x, "__dict__"):
        return type(x).__name__, _plain(vars(x))
    return type(x).__name__, x


def _outcome(call, n):
    """What `call(n)` returns, or the type and message it raises, which
    must be an `LdcError`."""
    try:
        return _plain(call(n))
    except LdcError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value", COUNTS, ids=repr)
@pytest.mark.parametrize("name", CALLS)
def test_a_count_returns_or_raises_an_ldc_error(name, value):
    # build_exp(True, 2) built a base of one element; build_exp(2.5, 2),
    # comonad_coassoc_report(2.0, 2), induce_bang_monoid(g, "2") and
    # retract_idempotent(g, None) raised TypeError
    got = _outcome(CALLS[name], value)
    if isinstance(value, np.integer):
        assert got == _outcome(CALLS[name], int(value))
    elif (name, value) == ("build_exp base", "2"):   # a list of labels
        assert got == _plain(build_exp(["2"], 2))
    elif name != "split_idempotent entry":
        assert isinstance(got[0], type) and issubclass(got[0], LdcError)




@functools.cache
def _qubit() -> Gadget:
    return load_gadget("qubit-zx")


@functools.cache
def _retract() -> dict:
    """The retract of qubit-zx at degree 2, whose gadget has ub and vb."""
    return retract_idempotent(_qubit(), 2)


def _comonoid() -> tuple[np.ndarray, np.ndarray]:
    return _qubit().morphism("d"), _qubit().morphism("k")


def _monoid() -> tuple[np.ndarray, np.ndarray]:
    return _qubit().morphism("m"), _qubit().morphism("u")


def _idempotents() -> tuple[Gadget, np.ndarray, np.ndarray]:
    g = _retract()["gadget"]
    ub, vb = g.morphism("ub"), g.morphism("vb")
    return g, vb @ ub, ub @ vb


def _binary(tol) -> dict:
    e = _qubit().morphism("u") @ _qubit().morphism("k")
    g = Gadget("binary_idempotent", dict(_qubit().objects),
               {"u": e, "v": e}, _qubit().env)
    return split_binary_idempotent(g, tol)


def _basis(n: int = 2, degree: int = 2) -> MultisetBasis:
    return MultisetBasis([str(i) for i in range(n)], degree)


def _evaluate(matrix) -> np.ndarray:
    env = ModelEnv.make({"A": 2}, generators={"f": matrix})
    return evaluate(generator("f", [Atom("A")], [Atom("A")]), env)


# (name, the call with a wrong shape in one of its places, and the error
# it raises)
SHAPES = {
    "bang_matrix": (lambda: bang_matrix(np.eye(3), _basis(), _basis()),
                    ShapeMismatch),
    "bang_matrix vector":
        (lambda: bang_matrix(np.ones(2), _basis(), _basis()), ShapeMismatch),
    # an IndexError when f is a vector
    "lift_flat f": (lambda: lift_flat(_comonoid(), np.array([1., 0.]),
                                      _basis()), ShapeMismatch),
    "lift_flat comonoid": (lambda: lift_flat(
        (np.ones((4, 2)), np.ones((1, 3))), np.eye(2), _basis()),
        ShapeMismatch),
    "lift_sharp g": (lambda: lift_sharp(_monoid(), np.array([1., 0.]),
                                        _basis()), ShapeMismatch),
    # a ValueError from the reshape
    "comonoid_residual delta":
        (lambda: comonoid_residual(np.zeros((4, 3)), np.zeros((1, 2))),
         ShapeMismatch),
    "comonoid_residual counit":
        (lambda: comonoid_residual(np.zeros((4, 2)), np.zeros(2)),
         ShapeMismatch),
    "evaluate generator": (lambda: _evaluate(np.eye(3)), ShapeMismatch),
    "evaluate vector": (lambda: _evaluate(np.ones(4)), ShapeMismatch),
    "matrices_equal": (lambda: matrices_equal(np.eye(2), np.eye(3)),
                       ShapeMismatch),
    "split_idempotent rectangle":
        (lambda: split_idempotent(np.ones((2, 3))), ShapeMismatch),
    "split_idempotent vector":
        (lambda: split_idempotent(np.ones(2)), ShapeMismatch),
    "split_idempotent scalar":
        (lambda: split_idempotent(np.float64(1)), ShapeMismatch),
    "matrix_to_json": (lambda: matrix_to_json(np.ones(3)), SchemaError),
    "matrix_from_json data": (lambda: matrix_from_json(
        _matrix(data=[[1, 0, 0], [2, 0, 0]])), SchemaError),
}


@pytest.mark.parametrize("name", SHAPES)
def test_a_wrong_shape_raises_its_error(name):
    call, error = SHAPES[name]
    with pytest.raises(LdcError) as info:
        call()
    assert type(info.value) is error


def test_a_nested_list_is_read_as_an_array():
    # an AttributeError: bang_matrix read f.shape before reading f
    basis = _basis(2, 3)
    assert np.array_equal(bang_matrix([[1, 0], [0, 1]], basis, basis),
                          np.eye(basis.dim))


def test_a_comonoid_of_dimension_zero_has_residual_zero():
    # "zero-size array to reduction operation maximum which has no
    # identity", from comonoid_residual and so from lift_flat
    delta, e = np.zeros((0, 0)), np.zeros((1, 0))
    assert comonoid_residual(delta, e) == 0.0
    basis = _basis(2, 2)
    lifted = lift_flat((delta, e), np.zeros((2, 0)), basis)
    assert lifted.shape == (basis.dim, 0)


# (name, the call with a list of labels in one of its places)
LABEL_CALLS = {
    "MultisetBasis": lambda v: MultisetBasis(v, 1),
    "ModelEnv atom": lambda v: ModelEnv(atoms={"A": (2, v)}),
    "build_exp": lambda v: build_exp(v, 2),
    "gadget_from_json basis": lambda v: gadget_from_json(
        QUBIT | {"atoms": {"Q": {"dim": 2, "basis": v}}}),
}
# labels that are not strings, a list holding a non-string, missing, a
# number, and bytes
LABELS = [[0, 1], ["a", None], None, 2.5, b"ab"]


@pytest.mark.parametrize("value", LABELS, ids=repr)
@pytest.mark.parametrize("name", LABEL_CALLS)
def test_labels_are_a_list_of_strings(name, value):
    # MultisetBasis([0, 1], 1).labels(), MultisetBasis(None, 1) and
    # build_exp([0, 1], 2).basis.labels() raised TypeError
    if (name, value) == ("gadget_from_json basis", None):
        # a document without labels takes the default ones
        LABEL_CALLS[name](value)
        return
    with pytest.raises(LdcError):
        LABEL_CALLS[name](value)


def test_labels_are_kept_as_a_tuple():
    assert MultisetBasis(["a", "b"], 1).base == ("a", "b")
    assert ModelEnv(atoms={"A": (2, ["a", "b"])}).atoms["A"] == (2, ("a",
                                                                     "b"))
    # a string base reads as its labels
    assert build_exp("ab", 2).basis.base == ("a", "b")


@pytest.mark.parametrize("table", [None, [("A", (2, ("0", "1")))], "A"],
                         ids=repr)
@pytest.mark.parametrize("call", [lambda t: ModelEnv(atoms=t),
                                  ModelEnv.make,
                                  lambda t: ModelEnv(generators=t)],
                         ids=["ModelEnv atoms", "ModelEnv.make",
                              "ModelEnv generators"])
def test_a_table_is_a_mapping(call, table):
    # AttributeError: ... has no attribute 'items'
    with pytest.raises(LdcError, match="is a mapping of names to entries"):
        call(table)


@pytest.mark.parametrize("entries", ["abc", [["a"]], None,
                                     np.array([1, "x"], dtype=object)],
                         ids=repr)
@pytest.mark.parametrize("call", [
    lambda m: Gadget("x", {"A": Atom("Q")}, {"m": m}, _qubit().env),
    lambda m: ModelEnv(generators={"m": m}),
    lambda m: ModelEnv().assign("m", m)],
    ids=["Gadget", "ModelEnv", "assign"])
def test_matrix_entries_are_numbers(call, entries):
    # ValueError: complex() arg is a malformed string
    with pytest.raises(LdcError, match="matrix entries must be numbers"):
        call(entries)


_RAGGED = [[1, 2], [3]]
_OBJECTS = np.array([[None, 1], [2, 3]], dtype=object)
_NAN = np.eye(2) * math.nan

# (name, a call with a NaN or infinite matrix, a ragged nesting, entries
# that are not numbers, or a gadget table that is not a mapping)
BAD_ARRAYS = {
    # NaN rows, or NaN: a NaN residual passed `res > tol`
    "lift_flat NaN comonoid":
        lambda: lift_flat((_comonoid()[0] * math.nan, _comonoid()[1]),
                          np.eye(2), _basis()),
    "comonoid_residual NaN":
        lambda: comonoid_residual(_comonoid()[0] * math.nan, _comonoid()[1]),
    "lift_flat NaN f": lambda: lift_flat(_comonoid(), _NAN, _basis()),
    "lift_sharp NaN monoid":
        lambda: lift_sharp((_monoid()[0] * math.nan, _monoid()[1]),
                           np.eye(2), _basis()),
    "bang_matrix NaN": lambda: bang_matrix(_NAN, _basis(), _basis()),
    "bang_matrix infinite": lambda: bang_matrix(np.full((2, 2), math.inf),
                                                _basis(), _basis()),
    # ValueError: setting an array element with a sequence
    "matrices_equal ragged": lambda: matrices_equal(_RAGGED, _RAGGED),
    "Gadget ragged": lambda: Gadget("x", dict(_qubit().objects),
                                    {"m": _RAGGED}, _qubit().env),
    "ModelEnv.assign ragged": lambda: ModelEnv().assign("m", _RAGGED),
    "matrix_to_json ragged": lambda: matrix_to_json(_RAGGED),
    "comonoid_residual ragged":
        lambda: comonoid_residual(_RAGGED, _comonoid()[1]),
    "split_idempotent ragged": lambda: split_idempotent(_RAGGED),
    "lift_sharp ragged":
        lambda: lift_sharp((_RAGGED, _monoid()[1]), np.eye(2), _basis()),
    # UFuncTypeError, TypeError or ValueError, or taken
    "bang_matrix strings":
        lambda: bang_matrix([["a", "b"], ["c", "d"]], _basis(), _basis()),
    "bang_matrix objects": lambda: bang_matrix(_OBJECTS, _basis(), _basis()),
    "matrices_equal strings": lambda: matrices_equal([["a"]], [["a"]]),
    "matrices_equal objects": lambda: matrices_equal(_OBJECTS, _OBJECTS),
    "split_idempotent strings": lambda: split_idempotent([["a"]]),
    "comonoid_residual strings":
        lambda: comonoid_residual(_comonoid()[0], [["a", "b"]]),
    "comonoid_residual objects":
        lambda: comonoid_residual(_comonoid()[0].astype(object),
                                  _comonoid()[1]),
    # AttributeError
    "Gadget roles None": lambda: Gadget("x", dict(_qubit().objects), None,
                                        _qubit().env),
    "Gadget objects list":
        lambda: Gadget("x", list(_qubit().objects.items()),
                       dict(_qubit().morphisms), _qubit().env),
    "Gadget env None": lambda: Gadget("x", dict(_qubit().objects),
                                      dict(_qubit().morphisms), None),
}


@pytest.mark.parametrize("name", BAD_ARRAYS)
def test_a_bad_array_or_table_raises_an_ldc_error(name):
    with pytest.raises(LdcError):
        BAD_ARRAYS[name]()


@functools.cache
def _induced_doc() -> dict:
    """The document of the bialgebra qubit-zx induces at degree 2."""
    return gadget_to_json(induce_bang_monoid(_qubit(), 2))


def _with_objects(objects) -> Gadget:
    return Gadget("x", objects, dict(_qubit().morphisms), _qubit().env)


# (name, a call that states an exponential's grades apart from its types,
# or types a gadget's object by no formula, the error and its message)
TYPING = {
    # taken, and check_suite raised AttributeError, ValueError or TypeError
    "Gadget gradings": (lambda: Gadget(
        "x", dict(_qubit().objects), dict(_qubit().morphisms), _qubit().env,
        {"A": [0, 1], "B": [0, 1]}), LdcError,
        "gradings are read from the objects' bang and quest types, got "
        "{'A': [0, 1], 'B': [0, 1]}"),
    "Gadget gradings list": (lambda: Gadget(
        "x", dict(_qubit().objects), dict(_qubit().morphisms), _qubit().env,
        gradings=[1, 2]), LdcError, "quest types, got [1, 2]"),
    # the window was read from the table
    "document gradings": (lambda: gadget_from_json(
        _induced_doc() | {"gradings": {"A": [0, 1, 1], "B": [0, 1, 1]}}),
        SchemaError, "rebuild the gadget and re-save it with "
        "gadget_to_json"),
    # read at the caller's degree bound
    "document no degree": (lambda: gadget_from_json(
        {k: v for k, v in _induced_doc().items() if k != "degree"}),
        SchemaError, "a gadget document over an exponential must state its "
        "'degree'"),
    "document degree -1": (lambda: gadget_from_json(
        _induced_doc() | {"degree": -1}), SchemaError,
        "a document's degree is a nonnegative integer, got -1"),
    "document degree 2.5": (lambda: gadget_from_json(
        _induced_doc() | {"degree": 2.5}), SchemaError,
        "a document's degree is a nonnegative integer, got 2.5"),
    "document degree '2'": (lambda: gadget_from_json(
        _induced_doc() | {"degree": "2"}), SchemaError,
        "a document's degree is a nonnegative integer, got '2'"),
    # taken, and check_suite raised TypeError: not an object formula: 5
    "Gadget object 5": (lambda: _with_objects({"A": 5, "B": 5}), LdcError,
                        "object 'A': not an object formula: 5"),
    "Gadget object name": (lambda: _with_objects({"A": "Q", "B": "Q"}),
                           LdcError, "object 'A': not an object formula: "
                           "'Q'"),
    "Gadget object !5": (lambda: _with_objects({"A": Bang(5)}), LdcError,
                         "object 'A': not an object formula: 5"),
}


@pytest.mark.parametrize("name", TYPING)
def test_grades_come_only_from_formulas(name):
    call, error, message = TYPING[name]
    with pytest.raises(LdcError, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error


# Every public callable with a `tol` parameter: (name, the call with a
# tolerance in that place).  A call with 1e-9 returns.
TOLERANCES = {
    "SuiteReport": lambda t: SuiteReport("dual", True, t, {}),
    "check_suite":
        lambda t: check_suite(_qubit(), SUITES["complementary"], t),
    "comonad_coassoc_report": lambda t: comonad_coassoc_report(2, 2, t),
    "complementary_from_idempotent": lambda t: complementary_from_idempotent(
        _retract()["gadget"], t, splitting=_retract()["splitting"]),
    "induce_bang_monoid": lambda t: induce_bang_monoid(_qubit(), 2, t),
    "lift_flat": lambda t: lift_flat(_comonoid(), np.eye(2), _basis(), t),
    "lift_sharp": lambda t: lift_sharp(_monoid(), np.eye(2), _basis(), t),
    "matrices_equal": lambda t: matrices_equal(np.eye(2), np.eye(2), t),
    "retract_idempotent": lambda t: retract_idempotent(_qubit(), 2, t),
    "split_binary_idempotent": _binary,
    "split_idempotent": lambda t: split_idempotent(np.eye(2), t),
    "split_linear_comonoid":
        lambda t: split_linear_comonoid(*_idempotents(), t),
    "split_linear_monoid": lambda t: split_linear_monoid(*_idempotents(), t),
}
# not a number, negative, infinite, a string, missing, and a bool
BAD_TOLERANCES = [math.nan, -1, math.inf, "1e-9", None, True]


def _takes(obj: object, parameter: str) -> bool:
    try:
        return parameter in inspect.signature(obj).parameters
    except (TypeError, ValueError):   # not callable, or an error class
        return False


def test_every_public_tolerance_has_an_entry():
    public = {name for name in ldckit.__all__
              if _takes(getattr(ldckit, name), "tol")}
    assert public == set(TOLERANCES)


# The public callables with a `degree` parameter: those that build an
# exponential, and `ModelEnv`, where a gadget holds its bound.  A gadget is
# loaded with the bound its document states, and is never given one.
DEGREE_TAKERS = {"ModelEnv", "MultisetBasis", "build_exp",
                 "comonad_coassoc_report", "induce_bang_monoid",
                 "retract_idempotent"}


def test_only_what_builds_an_exponential_takes_a_degree():
    public = {name for name in ldckit.__all__
              if _takes(getattr(ldckit, name), "degree")}
    assert public == DEGREE_TAKERS


# The defaulted parameters, as `inspect.signature` shows them, of every
# public callable that has any: those of `ldckit.__all__`, and the public
# functions of `structures` and `exponential`.  A new option, or a changed
# default, has to be written here too.
OPTIONS = {
    "BoxState": "boxes=<factory>, pending=<factory>",
    "Gadget": "gradings=None",
    "ModelEnv": "atoms=<factory>, degree=3, generators=<factory>",
    "Node": "name=None, dom=None, cod=None, thin=None, inner=None",
    "NotExpandable": "message=''",
    "SuiteFailure": "detail=''",
    "ValidityReport": "stuck=None",
    "actions_to_monoid": "tol=1e-09",
    "antipode": "tol=1e-09",
    "build_exp": "with_duplication=True",
    "check_suite": "tol=1e-09",
    "comonad_coassoc_report": "tol=1e-09",
    "compact_reflection": "tol=1e-09",
    "complementary_from_idempotent": "tol=1e-09, splitting=None",
    "dagger_of_dual": "tol=1e-09",
    "induce_bang_monoid": "degree=3, tol=1e-09",
    "lift_flat": "tol=1e-09",
    "lift_sharp": "tol=1e-09",
    "matrices_equal": "tol=1e-09",
    "monoid_to_actions": "tol=1e-09",
    "retract_idempotent": "degree=3, tol=1e-09",
    "split_binary_idempotent": "tol=1e-09",
    "split_idempotent": "tol=1e-09",
    "split_linear_bialgebra": "tol=1e-09, splitting=None",
    "split_linear_comonoid": "tol=1e-09, splitting=None",
    "split_linear_monoid": "tol=1e-09, splitting=None",
    "tensor_of_duals": "tol=1e-09",
    "weak_preunitary_from_dagger_split": "tol=1e-09",
}


def test_every_option_is_in_the_table():
    public = {name: getattr(ldckit, name) for name in ldckit.__all__}
    for module in (structures, exponential):
        public |= {name: obj for name, obj in vars(module).items()
                   if inspect.isfunction(obj) and not name.startswith("_")
                   and obj.__module__ == module.__name__}
    options = {}
    for name, obj in public.items():
        try:
            parameters = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):   # not callable, or an error class
            continue
        defaulted = [f"{p.name}={p.default!r}" for p in parameters
                     if p.default is not p.empty]
        if defaulted:
            options[name] = ", ".join(defaulted)
    assert options == OPTIONS


@pytest.mark.parametrize("name", TOLERANCES)
def test_a_good_tolerance_is_taken(name):
    TOLERANCES[name](1e-9)
    TOLERANCES[name](np.float64(1e-9))


@pytest.mark.parametrize("value", BAD_TOLERANCES, ids=repr)
@pytest.mark.parametrize("name", TOLERANCES)
def test_a_bad_tolerance_raises_an_ldc_error(name, value):
    # retract_idempotent(g, 2, nan) failed the linear-bialgebra suite at
    # residual 0, check_suite(g, s, -1) failed it with every residual 0, and
    # matrices_equal(a, b, "x") or lift_flat(..., tol=None) raised TypeError
    with pytest.raises(LdcError, match="tolerance must be a finite number "
                                       "of at least 0"):
        TOLERANCES[name](value)


# Atom("") raised a bare ValueError, and Atom(5) was taken and failed
# later as UnboundAtom: 5.  A permutation of a repeated or missing index
# raised a bare ValueError, and one of mixed entries sorted's TypeError.
BAD_NAMES_AND_ORDERS = {
    "atom ''": (lambda: Atom(""), "bad atom name: ''"),
    "atom 5": (lambda: Atom(5), "bad atom name: 5"),
    **{f"order {order}": (
        lambda order=order: permutation([Atom("A"), Atom("A")], order),
        f"not a permutation of 0..1: {order}")
       for order in ([0, 0], [0], ["a", 0])}}


@pytest.mark.parametrize("name", BAD_NAMES_AND_ORDERS)
def test_a_bad_atom_name_or_order_raises_an_ldc_error(name):
    call, message = BAD_NAMES_AND_ORDERS[name]
    with pytest.raises(LdcError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", ["", 5])
def test_a_document_keeps_its_own_atom_refusal(value):
    with pytest.raises(SchemaError) as info:
        type_from_json({"atom": value})
    assert str(info.value) == f"bad atom name: {value!r}"


# A matrix document's entries are pairs [re, im]: the reader's own format,
# refused with the document's message, not the shape of an argument.
FORMAT_CHECKS = {
    ("io.py", 'if pairs.shape != (n, 2) or pairs.dtype.kind not in "iuf":')}


def test_the_window_is_read_only_from_types():
    # gradings is left only as the Gadget field that refuses any value but
    # None, and in the reader's refusal of a document that holds them; no
    # exponential is typed on an opaque atom
    texts = {path.name: path.read_text()
             for path in (ROOT / "src" / "ldckit").glob("*.py")}
    assert {name for name, text in texts.items()
            if "gradings" in text} == {"gadget.py"}
    assert not {name for name, text in texts.items()
                if re.search(r"""Atom\(\s*["']bang""", text)}


def test_only_errors_holds_the_rules():
    # an integer test, a finite test, any reading of a rank, and a refusal
    # by comparing a shape
    rules = re.compile(
        r"isinstance\([^()]*\bbool\b|\bisfinite\(|\.ndim\b"
        r"|\.shape\b(?:\[[^\]\n]*\])?\)?\s*(?:[!=]=|[<>]=?)"
        r"|(?:[!=]=|[<>]=?)\s*[\w.]+\.shape\b")
    found = set()
    for path in (ROOT / "src" / "ldckit").glob("*.py"):
        text = path.read_text()
        lines = text.splitlines()
        for match in rules.finditer(text):   # the line where it starts
            line = lines[text.count("\n", 0, match.start())]
            found.add((path.name, line.strip()))
    assert FORMAT_CHECKS <= found
    assert {name for name, line in found - FORMAT_CHECKS} == {"errors.py"}
