"""The idempotent suites and the sandwiched maps, derived from one leg rule
(`suites._absorbed`), against the builders that wrote each flavour out
(tests/suite_oracle.py): the same names, kinds, roles and labels, and every
template isomorphic to the oracle's and evaluating bit for bit the same, on
the snapshot's gadgets (built-in, reflected, exponential and random) and on
the built-in gadgets and exponential retracts given the suites' roles."""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ldckit.circuit import isomorphic
from ldckit.exponential import retract_idempotent
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.model import evaluate, interp
from ldckit.suites import (_ROLE_SIGNATURES, _SANDWICHED, _SIGNATURES, SUITES,
                           suite_env)

import suite_oracle as oracle

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "snapshot_suite_residuals",
    ROOT / "scripts" / "snapshot_suite_residuals.py")
snap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snap)


def _with_idempotents(g, seed: int):
    """`g` with the roles of the idempotent suites that it lacks: the
    dual's cup and cap are its left dual's, the idempotents on a retract
    are its pair's, and every other role is a seeded random matrix."""
    rng = np.random.default_rng(seed)
    extra = {"eta": g.morphism("eta_L"), "eps": g.morphism("eps_L")}
    if g.has("ub", "vb"):
        ub, vb = g.morphism("ub"), g.morphism("vb")
        extra |= {"e": vb @ ub, "e_a": vb @ ub, "e_b": ub @ vb}
    for role in ("e", "e_a", "e_b", "d", "k"):
        if role not in extra and not g.has(role):
            rows, cols = (math.prod(interp(g.object(o), g.env)[0]
                                    for o in objs)
                          for objs in _SIGNATURES[role][::-1])
            extra[role] = (rng.standard_normal((rows, cols))
                           + 1j * rng.standard_normal((rows, cols)))
    return g.with_morphisms(**extra)


def _gadgets():
    """The snapshot's gadgets with the suites they are checked against,
    then the built-in gadgets and the retracts of qubit-zx and zn:3 with
    the idempotent suites' roles, checked against every suite."""
    out = snap.gadgets()
    bases = {name: load_gadget(name) for name in fixture_names() + ["zn:3"]}
    bases |= {f"retract-{name}-{d}":
              retract_idempotent(load_gadget(name), d)["gadget"]
              for name in ("qubit-zx", "zn:3") for d in (2, 3)}
    out |= {f"{name}+idempotents": (_with_idempotents(g, seed), list(SUITES))
            for seed, (name, g) in enumerate(bases.items())}
    return out


GADGETS = _gadgets()
# The oracle put the sandwich on the left of the unit's absorption alone;
# the leg rule puts it on the right of every absorption, so these two
# equations trade sides.  `matrices_equal` is symmetric, so their residuals
# do not move.
TRADED = {"unit-absorption", "counit-absorption"}


def test_the_suites_keep_their_names_kinds_roles_and_labels():
    for name, old in oracle.IDEMPOTENT_SUITES.items():
        new = SUITES[name]
        assert (new.name, new.kind, new.roles) \
            == (old.name, old.kind, old.roles)
        assert [(eq.label, eq.margin) for eq in new.equations] \
            == [(eq.label, eq.margin) for eq in old.equations]


PAIRS = [(gname, suite) for gname, (g, suites) in GADGETS.items()
         for suite in suites if suite in oracle.IDEMPOTENT_SUITES
         and g.has(*SUITES[suite].roles)]


@pytest.mark.parametrize("prefix", ["random-", "retract-", "qubit-zx+"])
def test_every_suite_is_compared(prefix):
    assert {suite for gname, suite in PAIRS if gname.startswith(prefix)} \
        == set(oracle.IDEMPOTENT_SUITES)


@pytest.mark.parametrize("gname, suite", PAIRS)
def test_templates_match_the_oracle(gname, suite):
    g = GADGETS[gname][0]
    env = suite_env(g)
    for new, old in zip(SUITES[suite].equations,
                        oracle.IDEMPOTENT_SUITES[suite].equations):
        new_sides, old_sides = new.build(g), old.build(g)
        if new.label in TRADED:
            old_sides = old_sides[::-1]
        for c_new, c_old in zip(new_sides, old_sides):
            assert isomorphic(c_new, c_old), new.label
            assert np.array_equal(evaluate(c_new, env),
                                  evaluate(c_old, env)), new.label


SANDWICH_GADGETS = {name: g for name, (g, _) in GADGETS.items()
                    if g.has("ub", "vb", *_ROLE_SIGNATURES)}


def test_random_gadgets_with_the_pair_are_covered():
    assert sum(name.startswith("random-") for name in SANDWICH_GADGETS) >= 2


@pytest.mark.parametrize("gname", sorted(SANDWICH_GADGETS))
def test_sandwiched_maps_match_the_oracle_builder(gname):
    g = SANDWICH_GADGETS[gname]
    env = suite_env(g)
    assert list(_SANDWICHED) == list(_ROLE_SIGNATURES)
    for role, build in _SANDWICHED.items():
        new, old = build(g), oracle._sandwich(role)(g)
        assert isomorphic(new, old), role
        assert np.array_equal(evaluate(new, env), evaluate(old, env)), role
