"""Constructive transformations between structure gadgets.

Every operation checks its precondition suite, builds the target structure
by matrix arithmetic or circuit evaluation, and (where cheap) reports the
target suite so callers can assert the metamorphic guarantee: a passing
input yields a passing output.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import MissingRole, SuiteFailure
from .gadget import Gadget
from .model import ModelEnv, evaluate, interp, split_idempotent
from .objects import Atom, Par, Tensor
from .suites import (SUITES, SuiteReport, check_suite, suite_env,
                     _MONOID_TO_COMONOID, _ROLE_SIGNATURES, _act_left,
                     _act_right, _antipode_par, _antipode_tensor,
                     _coact_left, _coact_right, _d_left, _flavour_checks,
                     _k_left, _require_suite, tensor_of_duals_cap,
                     tensor_of_duals_cup)


# -- binary idempotents -----------------------------------------------------

def split_binary_idempotent(g: Gadget, tol: float = 1e-9) -> dict:
    """Split e_A = u;v and e_B = v;u and return the induced isomorphism
    pair between the two splittings: alpha = s;u;p and beta = q;v;r."""
    _require_suite(g, "binary-idempotent", tol)
    u, v = g.morphism("u"), g.morphism("v")
    e_a = v @ u          # u;v diagrammatically
    e_b = u @ v
    r, s = split_idempotent(e_a, tol)    # A -> E -> A, r then s
    p, q = split_idempotent(e_b, tol)    # B -> E' -> B, p then q
    alpha = p @ u @ s    # E -> E'
    beta = r @ v @ q     # E' -> E
    return {"alpha": alpha, "beta": beta,
            "r": r, "s": s, "p": p, "q": q,
            "dim_e": r.shape[0], "dim_e2": p.shape[0]}


def weak_preunitary_from_dagger_split(g: Gadget, tol: float = 1e-9
                                      ) -> tuple[np.ndarray, SuiteReport]:
    """For a dagger binary idempotent, the splitting induces the structure
    isomorphism alpha = s;u;s-dagger, which must be Hermitian."""
    _require_suite(g, "dagger-binary", tol)
    u, v = g.morphism("u"), g.morphism("v")
    r, s = split_idempotent(v @ u, tol)
    alpha = np.conj(s).T @ u @ s
    k = alpha.shape[0]
    env = ModelEnv.make({"E": k})
    probe = Gadget("preunitary", {"A": Atom("E"), "B": Atom("E")},
                   {"phi": alpha}, env)
    return alpha, check_suite(probe, SUITES["preunitary"], tol)


# -- linear monoids and the actions presentation ----------------------------

def monoid_to_actions(g: Gadget, tol: float = 1e-9) -> Gadget:
    _require_suite(g, "linear-monoid", tol)
    env = suite_env(g)
    morphs = {
        "m": g.morphism("m"), "u": g.morphism("u"),
        "d_b": evaluate(_d_left(g), env),
        "k_b": evaluate(_k_left(g), env),
        "act_l": evaluate(_act_left(g), env),
        "act_r": evaluate(_act_right(g), env),
        "coact_l": evaluate(_coact_left(g), env),
        "coact_r": evaluate(_coact_right(g), env),
    }
    return Gadget("monoid_actions", dict(g.objects), morphs, g.env)


def actions_to_monoid(g: Gadget, tol: float = 1e-9) -> Gadget:
    _require_suite(g, "monoid-actions", tol)
    env = suite_env(g)
    na = interp(g.object("A"), env)[0]
    nb = interp(g.object("B"), env)[0]
    u, k_b = g.morphism("u"), g.morphism("k_b")
    act_l = g.morphism("act_l").reshape(nb, na, nb)      # [b'; a, b]
    act_r = g.morphism("act_r").reshape(nb, nb, na)      # [b'; b, a]
    coact_l = g.morphism("coact_l").reshape(nb, na, na)  # [(b, x); a]
    coact_r = g.morphism("coact_r").reshape(na, nb, na)  # [(x, b); a]
    # The duals are re-expressed through the actions: the cup is the unit
    # coacted upon, the cap is the counit of an acted element.
    eta_l = np.einsum("xba,a->xb", coact_r, u[:, 0])        # (x, b)
    eps_l = np.einsum("c,cab->ba", k_b[0], act_l)           # (b, a)
    eta_r = np.einsum("bxa,a->bx", coact_l, u[:, 0])        # (b, x)
    eps_r = np.einsum("c,cba->ab", k_b[0], act_r)           # (a, b)
    m = np.einsum("xb,cab,cw->xwa", eta_l, act_l, eps_l)    # [x; w, a]
    morphs = {
        "m": m.reshape(na, na * na),
        "u": u,
        "eta_L": eta_l.reshape(na * nb, 1),
        "eps_L": eps_l.reshape(1, nb * na),
        "eta_R": eta_r.reshape(nb * na, 1),
        "eps_R": eps_r.reshape(1, na * nb),
    }
    return Gadget("linear_monoid", dict(g.objects), morphs, g.env)


# -- splittings along sectional/retractional idempotents --------------------

# The roles that the splitting of each side of a linear bialgebra conjugates.
_SIDES = {"monoid": tuple(_MONOID_TO_COMONOID),
          "comonoid": tuple(_MONOID_TO_COMONOID.values())}


def _split_roles(g, r, s, r2, s2, roles) -> dict[str, np.ndarray]:
    """Each of `roles` conjugated into the splitting: the retractions (r on
    A, r2 on B) after it on its codomain, the sections before it on its
    domain.  Roles come out in the order of `_ROLE_SIGNATURES`."""
    retract, section = {"A": r, "B": r2}, {"A": s, "B": s2}
    out = {}
    for role, (dom, cod) in _ROLE_SIGNATURES.items():
        if role not in roles:
            continue
        mat = g.morphism(role)
        if cod:
            mat = reduce(np.kron, [retract[o] for o in cod]) @ mat
        if dom:
            mat = mat @ reduce(np.kron, [section[o] for o in dom])
        out[role] = mat
    return out


def _require_flavour(g: Gadget, side: str, e_a, e_b, tol) -> None:
    """Accept the idempotents on one side of `g` if its compatibility
    suites (`suites._flavour_checks`) pass with them sectional, or else
    retractional; otherwise raise one `SuiteFailure` naming the suite that
    failed in each flavour."""
    probe = g.with_morphisms(e=e_a, e_a=e_a, e_b=e_b)
    failed = {}
    for flavour in ("sectional", "retractional"):
        for suite in _flavour_checks(side, flavour):
            report = check_suite(probe, suite, tol)
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


def _split(g: Gadget, structure: str, e_a, e_b, tol, splitting) -> Gadget:
    """The linear `structure` g split along e_a on A and e_b on B, by the
    caller's (r, s, r2, s2) if `splitting` is given.  g must pass its own
    suite, and each of its sides must preserve the idempotents as sectional
    or as retractional ones."""
    sides = list(_SIDES) if structure == "bialgebra" else [structure]
    _require_suite(g, f"linear-{structure}", tol)
    for side in sides:
        _require_flavour(g, side, e_a, e_b, tol)
    if splitting is None:
        splitting = (*split_idempotent(e_a, tol), *split_idempotent(e_b, tol))
    r, s, r2, s2 = splitting
    env = ModelEnv.make({"E": r.shape[0], "E2": r2.shape[0]})
    roles = [role for side in sides for role in _SIDES[side]]
    return Gadget(f"linear_{structure}", {"A": Atom("E"), "B": Atom("E2")},
                  _split_roles(g, r, s, r2, s2, roles), env)


def split_linear_monoid(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                        tol: float = 1e-9, splitting=None) -> Gadget:
    return _split(g, "monoid", e_a, e_b, tol, splitting)


def split_linear_comonoid(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                          tol: float = 1e-9, splitting=None) -> Gadget:
    return _split(g, "comonoid", e_a, e_b, tol, splitting)


def split_linear_bialgebra(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                           tol: float = 1e-9, splitting=None) -> Gadget:
    """Each side's idempotents may be of either flavour: in the canonical
    retract of an exponential the retraction is a monoid morphism while
    the section is a comonoid morphism."""
    return _split(g, "bialgebra", e_a, e_b, tol, splitting)


# -- compact reflection -----------------------------------------------------

def compact_reflection(g: Gadget, tol: float = 1e-9) -> Gadget:
    """Reinterpret every role matrix as the reversed arrow (its transpose).
    A linear monoid becomes a linear comonoid and vice versa; applying the
    reflection twice returns the original gadget exactly."""
    if g.has("m", "u"):
        _require_suite(g, "linear-monoid", tol)
        table, kind = _MONOID_TO_COMONOID, "linear_comonoid"
    elif g.has("d", "k"):
        _require_suite(g, "linear-comonoid", tol)
        table = {new: old for old, new in _MONOID_TO_COMONOID.items()}
        kind = "linear_monoid"
    else:
        raise MissingRole("m")
    morphs = {new: g.morphism(old).T for old, new in table.items()}
    return Gadget(kind, dict(g.objects), morphs, g.env)


# -- antipodes --------------------------------------------------------------

def antipode(g: Gadget, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    _require_suite(g, "complementary", tol)
    env = suite_env(g)
    s_tensor = evaluate(_antipode_tensor(g), env)
    s_par = evaluate(_antipode_par(g), env)
    _require_suite(g, "hopf", tol)
    return s_tensor, s_par


# -- duals ------------------------------------------------------------------

def dagger_of_dual(g: Gadget, tol: float = 1e-9) -> Gadget:
    _require_suite(g, "dual", tol)
    eta, eps = g.morphism("eta"), g.morphism("eps")
    objects = {"A": g.object("B"), "B": g.object("A")}
    morphs = {"eta": np.conj(eps).T, "eps": np.conj(eta).T}
    out = Gadget("dual", objects, morphs, g.env)
    _require_suite(out, "dual", tol)
    return out


def tensor_of_duals(g: Gadget, tol: float = 1e-9) -> Gadget:
    """From duals A -| B and C -| D build (A (x) C) -| (D (+) B)."""
    _require_suite(Gadget("dual", {"A": g.object("A"), "B": g.object("B")},
                    {"eta": g.morphism("eta"), "eps": g.morphism("eps")},
                    g.env), "dual", tol)
    _require_suite(Gadget("dual", {"A": g.object("C"), "B": g.object("D")},
                    {"eta": g.morphism("eta2"), "eps": g.morphism("eps2")},
                    g.env), "dual", tol)
    env = suite_env(g)
    objects = {"A": Tensor(g.object("A"), g.object("C")),
               "B": Par(g.object("D"), g.object("B"))}
    morphs = {"eta": evaluate(tensor_of_duals_cup(g), env),
              "eps": evaluate(tensor_of_duals_cap(g), env)}
    out = Gadget("dual", objects, morphs, g.env)
    _require_suite(out, "dual", tol)
    return out


# -- complementary systems from idempotents ---------------------------------

def complementary_from_idempotent(g: Gadget, tol: float = 1e-9,
                                  splitting=None) -> dict:
    """Report the complementary suite sandwiched between e_A = ub;vb and
    e_B = vb;ub, split the linear bialgebra along e_A and e_B, and report
    the complementary suite on the split gadget.  The two verdicts must
    agree."""
    # the conditions read ub and vb, so a pair that does not compose both
    # ways is refused there with ShapeMismatch
    conditions = check_suite(g, SUITES["complementary-idempotent-cond"], tol)
    ub, vb = g.morphism("ub"), g.morphism("vb")
    split = split_linear_bialgebra(g, vb @ ub, ub @ vb, tol, splitting)
    verdict = check_suite(split, SUITES["complementary"], tol)
    return {"conditions": conditions, "split": split,
            "complementary": verdict}
