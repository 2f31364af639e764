"""The complementarity conditions of a binary idempotent, derived by
substituting the sandwiched structure maps into the `complementary` suite,
against the hand-written suite they replace (tests/suite_oracle.py): the
same labels, and every template evaluating bit for bit the same as the
oracle's and isomorphic to it, except where the `complementary` template is
a mirror image with its symmetries placed otherwise."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ldckit.circuit import isomorphic
from ldckit.exponential import retract_idempotent
from ldckit.fixtures import load_gadget
from ldckit.model import evaluate
from ldckit.suites import _SANDWICHED, SUITES, suite_env

import suite_oracle as oracle

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "snapshot_suite_residuals",
    ROOT / "scripts" / "snapshot_suite_residuals.py")
snap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snap)

DERIVED = SUITES["complementary-idempotent-cond"]
ORACLE = oracle._complementary_idempotent_suite()


def _gadgets():
    qubit = load_gadget("qubit-zx")
    out = {f"retract-qubit-zx-{d}": retract_idempotent(qubit, d)["gadget"]
           for d in (2, 3)}
    out.update({name: g for name, (g, _) in snap.random_gadgets().items()
                if g.has("ub", "vb")})
    return out


GADGETS = _gadgets()


def test_random_gadgets_with_the_idempotent_are_covered():
    assert sum(name.startswith("random-") for name in GADGETS) >= 2


def test_suite_keeps_its_labels_roles_and_margins():
    assert DERIVED.kind == ORACLE.kind
    assert DERIVED.roles == ORACLE.roles
    assert [(eq.label, eq.margin) for eq in DERIVED.equations] \
        == [(eq.label, eq.margin) for eq in ORACLE.equations]


@pytest.mark.parametrize("gname", sorted(GADGETS))
def test_sandwiched_maps_match_the_oracle(gname):
    g = GADGETS[gname]
    new = {role: build(g) for role, build in _SANDWICHED.items()}
    old = oracle._sandwiched(g)
    assert set(new) == set(old)
    for role in old:
        assert isomorphic(new[role], old[role]), role


# comp.1-right and comp.3-right are the mirror images of their left twins:
# the mirror of comp.1-left keeps its symmetry, and that of _d_left in
# comp.3-left places its symmetries otherwise than the hand-written _d_right.
MIRRORED = {("idemcomp.a-right", "lhs"), ("idemcomp.c-right", "lhs")}


@pytest.mark.parametrize("gname", sorted(GADGETS))
def test_templates_match_the_oracle(gname):
    g = GADGETS[gname]
    assert g.has(*DERIVED.roles)
    env = suite_env(g)
    for new_eq, old_eq in zip(DERIVED.equations, ORACLE.equations):
        for side, c_new, c_old in zip(("lhs", "rhs"), new_eq.build(g),
                                      old_eq.build(g)):
            assert isomorphic(c_new, c_old) \
                or (new_eq.label, side) in MIRRORED, new_eq.label
            assert np.array_equal(evaluate(c_new, env),
                                  evaluate(c_old, env)), new_eq.label
