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
from .objects import Atom, ObjectExpr, Par, Tensor
from .suites import (SUITES, SuiteReport, check_suite, suite_env,
                     _MONOID_TO_COMONOID, _ROLE_SIGNATURES, _act_left,
                     _act_right, _antipode_par, _antipode_tensor,
                     _coact_left, _coact_right, _d_left, _k_left,
                     tensor_of_duals_cap, tensor_of_duals_cup)


def _require(g: Gadget, suite_name: str, tol: float) -> SuiteReport:
    report = check_suite(g, SUITES[suite_name], tol)
    if not report.passed:
        raise SuiteFailure(suite_name,
                           f"worst residual {report.worst():.3e}")
    return report


def _mat(g: Gadget, role: str) -> np.ndarray:
    return np.asarray(g.morphism(role), dtype=complex)


# -- binary idempotents -----------------------------------------------------

def split_binary_idempotent(g: Gadget, tol: float = 1e-9) -> dict:
    """Split e_A = u;v and e_B = v;u and return the induced isomorphism
    pair between the two splittings: alpha = s;u;p and beta = q;v;r."""
    _require(g, "binary-idempotent", tol)
    u, v = _mat(g, "u"), _mat(g, "v")
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
    _require(g, "dagger-binary", tol)
    u, v = _mat(g, "u"), _mat(g, "v")
    r, s = split_idempotent(v @ u, tol)
    alpha = np.conj(s).T @ u @ s
    k = alpha.shape[0]
    env = ModelEnv.make({"E": k})
    probe = Gadget("preunitary", {"A": Atom("E"), "B": Atom("E")},
                   {"phi": alpha}, env)
    return alpha, check_suite(probe, SUITES["preunitary"], tol)


# -- linear monoids and the actions presentation ----------------------------

def monoid_to_actions(g: Gadget, tol: float = 1e-9) -> Gadget:
    _require(g, "linear-monoid", tol)
    env = suite_env(g)
    morphs = {
        "m": _mat(g, "m"), "u": _mat(g, "u"),
        "d_b": evaluate(_d_left(g), env),
        "k_b": evaluate(_k_left(g), env),
        "act_l": evaluate(_act_left(g), env),
        "act_r": evaluate(_act_right(g), env),
        "coact_l": evaluate(_coact_left(g), env),
        "coact_r": evaluate(_coact_right(g), env),
    }
    return Gadget("monoid_actions", dict(g.objects), morphs, g.env,
                  g.gradings)


def actions_to_monoid(g: Gadget, tol: float = 1e-9) -> Gadget:
    _require(g, "monoid-actions", tol)
    env = suite_env(g)
    na = interp(g.object("A"), env)[0]
    nb = interp(g.object("B"), env)[0]
    u = _mat(g, "u")
    k_b = _mat(g, "k_b")
    act_l = _mat(g, "act_l").reshape(nb, na, nb)      # [b'; a, b]
    act_r = _mat(g, "act_r").reshape(nb, nb, na)      # [b'; b, a]
    coact_l = _mat(g, "coact_l").reshape(nb, na, na)  # [(b, x); a]
    coact_r = _mat(g, "coact_r").reshape(na, nb, na)  # [(x, b); a]
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
    return Gadget("linear_monoid", dict(g.objects), morphs, g.env,
                  g.gradings)


# -- splittings along sectional/retractional idempotents --------------------

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
    _require(g.with_morphisms(e=e_a), f"{kind}-{main}", tol)

    swapped = None
    if g.gradings is not None:
        swapped = dict(g.gradings)
        if "A" in swapped and "B" in swapped:
            swapped["A"], swapped["B"] = swapped["B"], swapped["A"]
    probe_l = Gadget("dual_idempotent", dict(g.objects),
                     {"eta": _mat(g, f"{cup}_L"), "eps": _mat(g, f"{cap}_L"),
                      "e_a": e_a, "e_b": e_b}, g.env, g.gradings)
    probe_r = Gadget("dual_idempotent",
                     {"A": g.object("B"), "B": g.object("A")},
                     {"eta": _mat(g, f"{cup}_R"), "eps": _mat(g, f"{cap}_R"),
                      "e_a": e_b, "e_b": e_a}, g.env, swapped)
    if monoid:
        _require(probe_l, f"dual-{main}", tol)
        _require(probe_r, f"dual-{other}", tol)
    else:
        _require(probe_r, f"dual-{main}", tol)
        _require(probe_l, f"dual-{other}", tol)


def split_linear_monoid(g: Gadget, e_a: np.ndarray, e_b: np.ndarray,
                        tol: float = 1e-9,
                        retractional: bool = False,
                        splitting=None, check: bool = True) -> Gadget:
    if check:
        _require(g, "linear-monoid", tol)
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
        _require(g, "linear-comonoid", tol)
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
        _require(g, "linear-bialgebra", tol)
        _check_idempotent_compat(g, e_a, e_b, tol, mon_r, monoid=True)
        _check_idempotent_compat(g, e_a, e_b, tol, com_r, monoid=False)
    r, s, r2, s2 = _split_pair(e_a, e_b, tol, splitting)
    objects, env = _split_objects(r, r2)
    return Gadget("linear_bialgebra", objects,
                  _split_roles(g, r, s, r2, s2, _ROLE_SIGNATURES), env)


# -- compact reflection -----------------------------------------------------

def compact_reflection(g: Gadget, tol: float = 1e-9) -> Gadget:
    """Reinterpret every role matrix as the reversed arrow (its transpose).
    A linear monoid becomes a linear comonoid and vice versa; applying the
    reflection twice returns the original gadget exactly."""
    if g.has("m", "u"):
        _require(g, "linear-monoid", tol)
        table, kind = _MONOID_TO_COMONOID, "linear_comonoid"
    elif g.has("d", "k"):
        _require(g, "linear-comonoid", tol)
        table = {new: old for old, new in _MONOID_TO_COMONOID.items()}
        kind = "linear_monoid"
    else:
        raise MissingRole("m")
    morphs = {new: _mat(g, old).T for old, new in table.items()}
    return Gadget(kind, dict(g.objects), morphs, g.env, g.gradings)


# -- antipodes --------------------------------------------------------------

def antipode(g: Gadget, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    _require(g, "complementary", tol)
    env = suite_env(g)
    s_tensor = evaluate(_antipode_tensor(g), env)
    s_par = evaluate(_antipode_par(g), env)
    _require(g, "hopf", tol)
    return s_tensor, s_par


# -- duals ------------------------------------------------------------------

def dagger_of_dual(g: Gadget, tol: float = 1e-9) -> Gadget:
    _require(g, "dual", tol)
    eta, eps = _mat(g, "eta"), _mat(g, "eps")
    objects = {"A": g.object("B"), "B": g.object("A")}
    morphs = {"eta": np.conj(eps).T, "eps": np.conj(eta).T}
    out = Gadget("dual", objects, morphs, g.env, g.gradings)
    _require(out, "dual", tol)
    return out


def tensor_of_duals(g: Gadget, tol: float = 1e-9) -> Gadget:
    """From duals A -| B and C -| D build (A (x) C) -| (D (+) B)."""
    _require(Gadget("dual", {"A": g.object("A"), "B": g.object("B")},
                    {"eta": _mat(g, "eta"), "eps": _mat(g, "eps")},
                    g.env), "dual", tol)
    _require(Gadget("dual", {"A": g.object("C"), "B": g.object("D")},
                    {"eta": _mat(g, "eta2"), "eps": _mat(g, "eps2")},
                    g.env), "dual", tol)
    env = suite_env(g)
    objects = {"A": Tensor(g.object("A"), g.object("C")),
               "B": Par(g.object("D"), g.object("B"))}
    morphs = {"eta": evaluate(tensor_of_duals_cup(g), env),
              "eps": evaluate(tensor_of_duals_cap(g), env)}
    out = Gadget("dual", objects, morphs, g.env, g.gradings)
    _require(out, "dual", tol)
    return out


# -- complementary systems from idempotents ---------------------------------

def complementary_from_idempotent(g: Gadget, tol: float = 1e-9,
                                  retractional: bool = False,
                                  splitting=None, check: bool = True) -> dict:
    """Check the complementarity conditions of a coring binary idempotent
    on a linear bialgebra, split it, and report whether the split gadget is
    a complementary system.  The two verdicts must agree."""
    conditions = check_suite(g, SUITES["complementary-idempotent-cond"], tol)
    ub, vb = _mat(g, "ub"), _mat(g, "vb")
    e_a = vb @ ub
    e_b = ub @ vb
    split = split_linear_bialgebra(g, e_a, e_b, tol,
                                   retractional=retractional,
                                   splitting=splitting, check=check)
    verdict = check_suite(split, SUITES["complementary"], tol)
    return {"conditions": conditions, "split": split,
            "complementary": verdict}
