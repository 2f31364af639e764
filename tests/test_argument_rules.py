"""One rule per argument kind.  A count (an integer, not a bool, at or
above a floor) and a finite matrix are decided in `ldckit.errors` alone,
and the atom table in the `ModelEnv` constructor.  Every public function
that takes a count refuses a bad one with an `LdcError`, and reads a NumPy
integer as the int it holds."""
from __future__ import annotations

import re
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from ldckit.errors import LdcError
from ldckit.exponential import (build_exp, comonad_coassoc_report,
                                induce_bang_monoid, retract_idempotent)
from ldckit.fixtures import load_gadget
from ldckit.gadget import gadget_from_json, gadget_to_json
from ldckit.io import matrix_from_json
from ldckit.model import ModelEnv, split_idempotent
from ldckit.multiset import MultisetBasis

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
    "load_gadget degree": lambda n: load_gadget("qubit-zx", n),
    "load_gadget zn degree": lambda n: load_gadget("zn:3", n),
    "gadget_from_json degree": lambda n: gadget_from_json(QUBIT, n),
    "gadget_from_json dim": lambda n: gadget_from_json(_doc(n)),
    "gadget_from_json grading":
        lambda n: gadget_from_json(QUBIT | {"gradings": {"A": [0, n]}}),
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
    # retract_idempotent(g, None) raised TypeError; load_gadget("qubit-zx",
    # -1) and gadget_from_json(doc, 2.5) took the bound
    got = _outcome(CALLS[name], value)
    if isinstance(value, np.integer):
        assert got == _outcome(CALLS[name], int(value))
    elif (name, value) == ("build_exp base", "2"):   # a list of labels
        assert got == _plain(build_exp(["2"], 2))
    elif name != "split_idempotent entry":
        assert isinstance(got[0], type) and issubclass(got[0], LdcError)


def test_only_errors_holds_the_count_and_finite_rules():
    rules = re.compile(r"isinstance\([^()]*\bbool\b|np\.isfinite")
    found = {path.name: len(rules.findall(path.read_text()))
             for path in sorted((ROOT / "src" / "ldckit").glob("*.py"))}
    assert {name: n for name, n in found.items() if n} == {"errors.py": 2}
