"""The idempotent splittings of linear monoids, comonoids and bialgebras as
first written, kept as the reference that `ldckit.structures` is tested
against.

Each splitter takes the flavour of its idempotents as a `retractional` flag,
for the bialgebra a flag or a (monoid, comonoid) pair, and checks only that
flavour.  The three bodies differ only in the suites and roles they read.

`_require_flavour` is the one splitter's flavour check as it was before one
leg rule derived it: two probe gadgets of kind dual_idempotent, the second
with its objects and idempotents exchanged (an exponential's grades are
read off its objects' types, so they go with them), checked against the
idempotent suites as first written (`suite_oracle.IDEMPOTENT_SUITES`).
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from ldckit.errors import SuiteFailure
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, split_idempotent
from ldckit.objects import Atom, ObjectExpr
from ldckit.suites import (_MONOID_TO_COMONOID, _ROLE_SIGNATURES,
                           _require_suite, check_suite)

from suite_oracle import IDEMPOTENT_SUITES as SUITES


def _mat(g: Gadget, role: str) -> np.ndarray:
    return np.asarray(g.morphism(role), dtype=complex)


def _split_pair(e_a: np.ndarray, e_b: np.ndarray, tol: float,
                splitting=None):
    if splitting is not None:
        return splitting                   # caller-supplied (r, s, r', s')
    r, s = split_idempotent(e_a, tol)      # A -> E -> A
    r2, s2 = split_idempotent(e_b, tol)    # B -> E' -> B
    return r, s, r2, s2


def _split_objects(r, r2) -> tuple[dict[str, ObjectExpr], ModelEnv]:
    env = ModelEnv.make({"E": r.shape[0], "E2": r2.shape[0]})
    return {"A": Atom("E"), "B": Atom("E2")}, env


def _split_roles(g, r, s, r2, s2, roles) -> dict[str, np.ndarray]:
    """Each of `roles` conjugated into the splitting: the retractions (r on
    A, r2 on B) after it on its codomain, the sections before it on its
    domain.  Roles come out in the order of `_ROLE_SIGNATURES`."""
    retract, section = {"A": r, "B": r2}, {"A": s, "B": s2}
    out = {}
    for role, (dom, cod) in _ROLE_SIGNATURES.items():
        if role not in roles:
            continue
        mat = _mat(g, role)
        if cod:
            mat = reduce(np.kron, [retract[o] for o in cod]) @ mat
        if dom:
            mat = mat @ reduce(np.kron, [section[o] for o in dom])
        out[role] = mat
    return out


def _check_idempotent_compat(g: Gadget, e_a, e_b, tol, retractional,
                             monoid: bool) -> None:
    # The chosen flavour applies to the (co)monoid itself and to the dual
    # whose left object carries the structure; the other dual, read with
    # the idempotents swapped, is preserved in the opposite flavour.  The
    # comonoid sits on the right of its duals, so its two probes swap.
    main = "retractional" if retractional else "sectional"
    other = "sectional" if retractional else "retractional"
    kind = "monoid" if monoid else "comonoid"
    cup, cap = ("eta", "eps") if monoid else ("tau", "gam")
    _require_suite(g.with_morphisms(e=e_a), f"{kind}-{main}", tol)

    probe_l = Gadget("dual_idempotent", dict(g.objects),
                     {"eta": _mat(g, f"{cup}_L"), "eps": _mat(g, f"{cap}_L"),
                      "e_a": e_a, "e_b": e_b}, g.env)
    probe_r = Gadget("dual_idempotent",
                     {"A": g.object("B"), "B": g.object("A")},
                     {"eta": _mat(g, f"{cup}_R"), "eps": _mat(g, f"{cap}_R"),
                      "e_a": e_b, "e_b": e_a}, g.env)
    if monoid:
        _require_suite(probe_l, f"dual-{main}", tol)
        _require_suite(probe_r, f"dual-{other}", tol)
    else:
        _require_suite(probe_r, f"dual-{main}", tol)
        _require_suite(probe_l, f"dual-{other}", tol)


def split_linear_monoid(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                        tol: float = 1e-9,
                        retractional: bool = False,
                        splitting=None, check: bool = True) -> Gadget:
    if check:
        _require_suite(g, "linear-monoid", tol)
        _check_idempotent_compat(g, e_a, e_b, tol, retractional, monoid=True)
    r, s, r2, s2 = _split_pair(e_a, e_b, tol, splitting)
    objects, env = _split_objects(r, r2)
    return Gadget("linear_monoid", objects,
                  _split_roles(g, r, s, r2, s2, _MONOID_TO_COMONOID), env)


def split_linear_comonoid(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                          tol: float = 1e-9,
                          retractional: bool = False,
                          splitting=None, check: bool = True) -> Gadget:
    if check:
        _require_suite(g, "linear-comonoid", tol)
        _check_idempotent_compat(g, e_a, e_b, tol, retractional,
                                 monoid=False)
    r, s, r2, s2 = _split_pair(e_a, e_b, tol, splitting)
    objects, env = _split_objects(r, r2)
    return Gadget("linear_comonoid", objects,
                  _split_roles(g, r, s, r2, s2, _MONOID_TO_COMONOID.values()),
                  env)


def split_linear_bialgebra(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                           tol: float = 1e-9,
                           retractional=False,
                           splitting=None, check: bool = True) -> Gadget:
    """``retractional`` may be a single flag or a (monoid, comonoid) pair;
    the mixed form covers idempotents whose retraction is a monoid morphism
    while the section is a comonoid morphism, as happens for the canonical
    retract of an exponential."""
    mon_r, com_r = (retractional if isinstance(retractional, (tuple, list))
                    else (retractional, retractional))
    if check:
        _require_suite(g, "linear-bialgebra", tol)
        _check_idempotent_compat(g, e_a, e_b, tol, mon_r, monoid=True)
        _check_idempotent_compat(g, e_a, e_b, tol, com_r, monoid=False)
    r, s, r2, s2 = _split_pair(e_a, e_b, tol, splitting)
    objects, env = _split_objects(r, r2)
    return Gadget("linear_bialgebra", objects,
                  _split_roles(g, r, s, r2, s2, _ROLE_SIGNATURES), env)


# Each side a linear bialgebra may have: the roles of its duals' cups and
# caps, and the roles that its splitting conjugates.
_SIDES = {
    "monoid": ("eta", "eps", tuple(_MONOID_TO_COMONOID)),
    "comonoid": ("tau", "gam", tuple(_MONOID_TO_COMONOID.values())),
}


def _require_flavour(g: Gadget, side: str, e_a, e_b, tol) -> None:
    """Accept the idempotents on one side of `g` if its three compatibility
    suites pass with them sectional, or else retractional; otherwise raise
    one `SuiteFailure` naming the suite that failed in each flavour."""
    # A flavour applies to the (co)monoid itself and to the dual whose
    # left object carries the structure; the other dual, read with the
    # idempotents swapped, is preserved in the opposite flavour.  The
    # comonoid sits on the right of its duals, so its two probes swap.
    cup, cap, _ = _SIDES[side]
    probe_l = Gadget("dual_idempotent", dict(g.objects),
                     {"eta": g.morphism(f"{cup}_L"),
                      "eps": g.morphism(f"{cap}_L"),
                      "e_a": e_a, "e_b": e_b}, g.env)
    probe_r = Gadget("dual_idempotent",
                     {"A": g.object("B"), "B": g.object("A")},
                     {"eta": g.morphism(f"{cup}_R"),
                      "eps": g.morphism(f"{cap}_R"),
                      "e_a": e_b, "e_b": e_a}, g.env)
    main, other = ((probe_l, probe_r) if side == "monoid"
                   else (probe_r, probe_l))
    probe = g.with_morphisms(e=e_a)
    failed = {}
    for flavour, opposite in (("sectional", "retractional"),
                              ("retractional", "sectional")):
        for target, name in ((probe, f"{side}-{flavour}"),
                             (main, f"dual-{flavour}"),
                             (other, f"dual-{opposite}")):
            report = check_suite(target, SUITES[name], tol)
            if not report.passed:
                failed[flavour] = report
                break
        else:
            return
    raise SuiteFailure(
        " and ".join(f"{rep.suite} ({flavour})"
                     for flavour, rep in failed.items()),
        "worst residuals " + " and ".join(f"{rep.worst():.3e}"
                                          for rep in failed.values()))
