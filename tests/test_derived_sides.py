"""The right-hand templates, read off their left-hand twins by
`circuit.mirror`, and the par-side ones, the tensor-side laws on B under
`circuit.substitute`, against the hand-written templates they replace
(tests/suite_oracle.py): each side isomorphic to its reference, or else
evaluating to it within 1e-12 relative on random complex matrices, at
objects A != B of dimensions 2 and 3 and at A = B; and none contracting at
more cost than its reference at the `zn:32` typing."""
from __future__ import annotations

import numpy as np
import pytest

from ldckit.circuit import Circuit, isomorphic
from ldckit.errors import TypeMismatch
from ldckit.fixtures import load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, contraction_cost, dims_of, evaluate
from ldckit.objects import Atom
from ldckit.suites import SUITES

import suite_oracle as oracle

REFERENCES = oracle.hand_written()
_IDS = [f"{suite}/{label}" for suite, label in REFERENCES]


def _derived(suite: str, label: str):
    return next(eq for eq in SUITES[suite].equations if eq.label == label)


_ENV = ModelEnv.make({"A": 2, "B": 3})
_APART = Gadget("objects", {"A": Atom("A"), "B": Atom("B")}, {}, _ENV)
_SHARED = Gadget("objects", {"A": Atom("A"), "B": Atom("A")}, {}, _ENV)

# The sides that equal their references in value only: a mirror places the
# symmetries of a snake, of _d_left (so of _m_left) and of comp.1-left
# otherwise than the hand-written twin, and the par-side laws read _m_left.
SEMANTIC = {
    (suite, label, side)
    for suites, label, side in [
        (("linear-monoid", "dagger-linear-monoid"), "comult-coincide",
         "rhs"),
        (("linear-comonoid", "dagger-linear-comonoid"), "mult-coincide",
         "rhs"),
        (("dagger-linear-comonoid",), "mult-is-comult-dagger", "lhs"),
        (("frobenius-splitting-cond",), "splitting-right", "rhs"),
        (("complementary",), "comp.1-right", "lhs"),
        (("complementary",), "comp.3-right", "lhs"),
        (("hopf",), "hopf-par-left", "lhs"),
        (("hopf",), "hopf-par-right", "lhs"),
        (("linear-bialgebra",), "par-mult-comult", "lhs"),
        (("linear-bialgebra",), "par-mult-comult", "rhs"),
        (("linear-bialgebra",), "par-mult-counit", "lhs"),
    ]
    + [(("linear-monoid", "dagger-linear-monoid"), f"snake-right-dual-{x}",
        "lhs") for x in "ab"]
    + [(("linear-comonoid", "dagger-linear-comonoid"), f"snake-left-dual-{x}",
        "lhs") for x in "ab"]
    + [(("linear-bialgebra",), f"snake-{name}-right-{x}", "lhs")
       for name in ("monoid", "comonoid") for x in "xy"]
    for suite in suites
}


def _random_env(*circuits: Circuit) -> ModelEnv:
    """A random complex matrix for every generator that `circuits` read."""
    rng = np.random.default_rng(7)
    env = ModelEnv(atoms=_ENV.atoms)
    for c in circuits:
        for n in c.nodes.values():
            if n.kind == "gen" and n.name not in env.generators:
                shape = (int(np.prod(dims_of(n.cod, env))),
                         int(np.prod(dims_of(n.dom, env))))
                env.assign(n.name, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))
    return env


def test_every_reference_is_a_label_of_its_suite():
    for suite, label in REFERENCES:
        assert _derived(suite, label).margin == REFERENCES[suite, label].margin


@pytest.mark.parametrize("suite,label", list(REFERENCES), ids=_IDS)
@pytest.mark.parametrize("typing", ["apart", "shared"])
def test_derived_sides_equal_the_hand_written(suite, label, typing):
    g = _APART if typing == "apart" else _SHARED
    ref, new = REFERENCES[suite, label], _derived(suite, label)
    try:
        want = ref.build(g)
    except TypeMismatch:   # a template that needs A = B
        assert typing == "apart"
        with pytest.raises(TypeMismatch):
            new.build(g)
        return
    got = new.build(g)
    env = _random_env(*want, *got)
    for side, c_got, c_want in zip(("lhs", "rhs"), got, want):
        assert isomorphic(c_got, c_want) \
            == ((suite, label, side) not in SEMANTIC), side
        a, b = evaluate(c_got, env), evaluate(c_want, env)
        assert a.shape == b.shape
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        assert float(np.max(np.abs(a - b), initial=0.0)) <= 1e-12 * scale


_ZN = load_gadget("zn:32")
_IDEMPOTENT = oracle._complementary_idempotent_suite()
_COSTED = list(REFERENCES.items()) + [
    (("complementary-idempotent-cond", eq.label), eq)
    for eq in _IDEMPOTENT.equations]


@pytest.mark.parametrize("key,ref", _COSTED,
                         ids=[f"{s}/{label}" for (s, label), _ in _COSTED])
def test_no_dearer_contraction_at_zn32(key, ref):
    """FLOPs and largest intermediate of each side, at the typing of the
    Z_32 gadget, are at most the hand-written side's."""
    for c_got, c_want in zip(_derived(*key).build(_ZN), ref.build(_ZN)):
        got = contraction_cost(c_got, _ZN.env)
        want = contraction_cost(c_want, _ZN.env)
        assert got[0] <= want[0] and got[1] <= want[1]
