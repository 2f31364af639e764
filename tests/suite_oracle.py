"""Suite templates as first written, kept as the references that
`ldckit.suites` is tested against.

The complementarity conditions of a binary idempotent: every structure map
is sandwiched between e_A = ub;vb and e_B = vb;ub by hand, and the
`complementary` equations are typed out a second time over the sandwiched
maps.

The right-hand and par-side templates (`hand_written`): every right-hand
twin of a left-hand derived map or equation typed out by hand, and the
bialgebra and Hopf laws on the dual object B typed out over the maps
derived there, instead of read off the left-hand and tensor-side ones.

The idempotent suites (`IDEMPOTENT_SUITES`) and the sandwich builder
(`_sandwich`) as they were before one leg rule derived them: each flavour of
absorption written out behind a `retractional` flag, and the idempotent pair
e_A = ub;vb, e_B = vb;ub as two builders of its own.

The degree window as it was before it was read from the objects' types
(`graded_check_suite`): a gadget over an exponential typed its objects as
opaque atoms, and a separate gradings table, from object role to the
degree of each basis vector, gave the window.  `atom_typed` turns a gadget
typed !X back into that form.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ldckit.circuit import (Circuit, dagger, empty, generator, identity, par,
                            permutation, seq)
from ldckit.errors import MissingRole
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, evaluate, interp, matrices_equal
from ldckit.multiset import MultisetBasis
from ldckit.objects import (Atom, Bang, Bot, Dagger, ObjectExpr, Par, Tensor,
                            Top)
from ldckit.suites import (_COMONOID_LABELS, _LINEAR_BIALGEBRA_ROLES,
                           _MONOID_TO_COMONOID, _ROLE_SIGNATURES, Equation,
                           EquationSuite, SuiteReport, _antipode_tensor,
                           _d_left, _flipped, _flipped_suite, _idem,
                           _is_dagger, _k_left, _reversal, _sides, _snake_x,
                           _snake_y, suite_env)


# The typed cups and caps that the templates were written with.
def _cup(role: str, left: ObjectExpr, right: ObjectExpr) -> Circuit:
    return generator(role, [], [left, right])


def _cap(role: str, left: ObjectExpr, right: ObjectExpr) -> Circuit:
    return generator(role, [left, right], [])


def _e_a(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(generator("ub", [A], [B]), generator("vb", [B], [A]))


def _e_b(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(generator("vb", [B], [A]), generator("ub", [A], [B]))


def _sandwich(role: str) -> Callable[[Gadget], Circuit]:
    """The builder of `role` conjugated by the idempotent pair e_A = ub;vb,
    e_B = vb;ub: the image of the role under the (would-be) splitting,
    expressed on the ambient object."""
    dom, cod = _ROLE_SIGNATURES[role]
    pair = {"A": _e_a, "B": _e_b}

    def build(g: Gadget) -> Circuit:
        e = {o: pair[o](g) for o in dict.fromkeys(dom + cod)}

        def on(objs: tuple[str, ...]) -> Circuit:
            return par(empty(), *(e[o] for o in objs))

        return seq(on(dom),
                   generator(role, [g.object(o) for o in dom],
                             [g.object(o) for o in cod]),
                   on(cod))
    return build


def _dual_sectional_suite(retractional: bool = False) -> EquationSuite:
    def cup_eq(g):
        A, B = g.object("A"), g.object("B")
        ea = generator("e_a", [A], [A])
        eb = generator("e_b", [B], [B])
        if retractional:
            lhs = seq(_cup("eta", A, B), par(ea, identity([B])))
        else:
            lhs = seq(_cup("eta", A, B), par(identity([A]), eb))
        rhs = seq(_cup("eta", A, B), par(ea, eb))
        return lhs, rhs

    def cap_eq(g):
        A, B = g.object("A"), g.object("B")
        ea = generator("e_a", [A], [A])
        eb = generator("e_b", [B], [B])
        if retractional:
            lhs = seq(par(eb, identity([A])), _cap("eps", B, A))
        else:
            lhs = seq(par(identity([B]), ea), _cap("eps", B, A))
        rhs = seq(par(eb, ea), _cap("eps", B, A))
        return lhs, rhs

    name = "dual-retractional" if retractional else "dual-sectional"
    return EquationSuite(name, "dual_idempotent",
                        ("eta", "eps", "e_a", "e_b"), (
                            Equation("cup-absorption", cup_eq),
                            Equation("cap-absorption", cap_eq),
                            _idem("e_a"),
                            _idem("e_b"),
                        ))


def _monoid_sectional_suite(retractional: bool = False) -> EquationSuite:
    def mult_eq(g):
        A = g.object("A")
        e = generator("e", [A], [A])
        both = seq(par(generator("e", [A], [A]), generator("e", [A], [A])),
                   generator("m", [A, A], [A]),
                   generator("e", [A], [A]))
        if retractional:
            lhs = seq(generator("m", [A, A], [A]), e)
        else:
            lhs = seq(par(generator("e", [A], [A]),
                          generator("e", [A], [A])),
                      generator("m", [A, A], [A]))
        return lhs, both

    def unit_eq(g):
        A = g.object("A")
        return (seq(generator("u", [], [A]), generator("e", [A], [A])),
                generator("u", [], [A]))

    # Only the sectional flavour constrains the unit; the retractional one
    # constrains multiplication alone.
    name = "monoid-retractional" if retractional else "monoid-sectional"
    eqs: tuple[Equation, ...] = (Equation("mult-absorption", mult_eq),)
    if not retractional:
        eqs += (Equation("unit-absorption", unit_eq),)
    return EquationSuite(name, "monoid_idempotent", ("m", "u", "e"),
                         eqs + (_idem("e"),))


# The six idempotent suites by name, the comonoid ones flipped from the
# monoid ones as in the registry.
IDEMPOTENT_SUITES = {s.name: s for s in (
    _dual_sectional_suite(False),
    _dual_sectional_suite(True),
    _monoid_sectional_suite(False),
    _monoid_sectional_suite(True),
    _flipped_suite(_monoid_sectional_suite(True), "comonoid-sectional",
                   "comonoid_idempotent"),
    _flipped_suite(_monoid_sectional_suite(False),
                   "comonoid-retractional", "comonoid_idempotent"),
)}


def _sandwiched(g: Gadget) -> dict[str, Circuit]:
    """Each structure map conjugated by the idempotent pair e_A = ub;vb,
    e_B = vb;ub: the image of the role under the (would-be) splitting,
    expressed on the ambient object."""
    A, B = g.object("A"), g.object("B")

    def ea():
        return _e_a(g)

    def eb():
        return _e_b(g)

    return {
        "m": seq(par(ea(), ea()), generator("m", [A, A], [A]), ea()),
        "u": seq(generator("u", [], [A]), ea()),
        "d": seq(ea(), generator("d", [A], [A, A]), par(ea(), ea())),
        "k": seq(ea(), generator("k", [A], [])),
        "eta_L": seq(_cup("eta_L", A, B), par(ea(), eb())),
        "eps_L": seq(par(eb(), ea()), _cap("eps_L", B, A)),
        "eta_R": seq(_cup("eta_R", B, A), par(eb(), ea())),
        "eps_R": seq(par(ea(), eb()), _cap("eps_R", A, B)),
        "tau_L": seq(_cup("tau_L", A, B), par(ea(), eb())),
        "gam_L": seq(par(eb(), ea()), _cap("gam_L", B, A)),
        "tau_R": seq(_cup("tau_R", B, A), par(eb(), ea())),
        "gam_R": seq(par(ea(), eb()), _cap("gam_R", A, B)),
    }


def _complementary_idempotent_suite() -> EquationSuite:
    # The complementarity conditions for a binary idempotent on a linear
    # bialgebra: the complementary-system equations with every structure
    # map replaced by its idempotent-sandwiched image.  Because the
    # retraction/section composites collapse between consecutive maps,
    # checking these on the ambient gadget is equivalent to splitting the
    # idempotent and checking the complementary suite on the quotient.
    def derived(g):
        A, B = g.object("A"), g.object("B")
        sw = _sandwiched(g)
        u_left = seq(sw["tau_L"], par(sw["k"], identity([B])))
        u_right = seq(sw["tau_R"], par(identity([B]), sw["k"]))
        k_left = seq(par(identity([B]), sw["u"]), sw["eps_L"])
        k_right = seq(par(sw["u"], identity([B])), sw["eps_R"])
        d_left = seq(par(identity([B]), sw["eta_L"], sw["eta_L"]),
                     permutation([B, A, B, A, B], [1, 3, 0, 4, 2]),
                     par(sw["m"], identity([B, B, B])),
                     permutation([A, B, B, B], [1, 0, 2, 3]),
                     par(sw["eps_L"], identity([B, B])))
        d_right = seq(par(identity([B]), sw["eta_R"], sw["eta_R"]),
                      permutation([B, B, A, B, A], [4, 2, 0, 1, 3]),
                      par(sw["m"], identity([B, B, B])),
                      par(sw["eps_R"], identity([B, B])))
        return sw, u_left, u_right, k_left, k_right, d_left, d_right

    def cond_a(side: str):
        def build(g):
            A, B = g.object("A"), g.object("B")
            sw, u_left, u_right, *_ = derived(g)
            if side == "L":
                lhs = seq(par(identity([A]), u_left),
                          permutation([A, B], [1, 0]), sw["eps_L"])
            else:
                lhs = seq(par(identity([A]), u_right), sw["eps_R"])
            return lhs, sw["k"]
        return build

    def cond_b(side: str):
        def build(g):
            A, B = g.object("A"), g.object("B")
            sw, _, _, k_left, k_right, _, _ = derived(g)
            if side == "L":
                lhs = seq(sw["tau_L"], par(identity([A]), k_left))
            else:
                lhs = seq(sw["tau_R"], par(k_right, identity([A])))
            return lhs, sw["u"]
        return build

    def cond_c(side: str):
        def build(g):
            sw, u_left, u_right, _, _, d_left, d_right = derived(g)
            if side == "L":
                return seq(u_left, d_left), par(u_left, u_left)
            return seq(u_right, d_right), par(u_right, u_right)
        return build

    return EquationSuite("complementary-idempotent-cond",
                        "linear_bialgebra_idempotent",
                        _LINEAR_BIALGEBRA_ROLES + ("ub", "vb"), (
                            Equation("idemcomp.a-left", cond_a("L")),
                            Equation("idemcomp.a-right", cond_a("R")),
                            Equation("idemcomp.b-left", cond_b("L")),
                            Equation("idemcomp.b-right", cond_b("R")),
                            Equation("idemcomp.c-left", cond_c("L")),
                            Equation("idemcomp.c-right", cond_c("R")),
                        ))


# -- the right-hand and par-side templates ----------------------------------

def _d_right(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([B]), _cup("eta_R", B, A), _cup("eta_R", B, A)),
               permutation([B, B, A, B, A], [4, 2, 0, 1, 3]),
               par(generator("m", [A, A], [A]), identity([B, B, B])),
               par(_cap("eps_R", A, B), identity([B, B])))


def _k_right(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(generator("u", [], [A]), identity([B])),
               _cap("eps_R", A, B))


def _m_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([B, B]), _cup("tau_L", A, B)),
               par(identity([B, B]), generator("d", [A], [A, A]),
                   identity([B])),
               permutation([B, B, A, A, B], [1, 2, 0, 3, 4]),
               par(_cap("gam_L", B, A), _cap("gam_L", B, A), identity([B])))


def _u_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(_cup("tau_L", A, B),
               par(generator("k", [A], []), identity([B])))


def _u_right(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(_cup("tau_R", B, A),
               par(identity([B]), generator("k", [A], [])))


def _act_right(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(_cup("eta_R", B, A), identity([B, A])),
               permutation([B, A, B, A], [3, 1, 0, 2]),
               par(generator("m", [A, A], [A]), identity([B, B])),
               permutation([A, B, B], [0, 2, 1]),
               par(_cap("eps_R", A, B), identity([B])))


def _coact_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(_cup("eta_R", B, A), identity([A])),
               par(identity([B]), generator("m", [A, A], [A])))


def _antipode_par(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(_u_left(g), identity([B])),
               par(generator("d", [A], [A, A]), identity([B])),
               par(identity([A]), _cap("gam_R", A, B)))


def _snakes(labels: tuple[str, str], cup: str, cap: str,
            flip: bool = False) -> tuple[Equation, ...]:
    """The two snake equations of the dual A -| B (B -| A when flipped)
    with unit `cup` and counit `cap`."""
    def build(snake):
        def b(g):
            X, Y = [g.object("A")], [g.object("B")]
            if flip:
                X, Y = Y, X
            return snake(X, Y, _cup(cup, *X, *Y), _cap(cap, *Y, *X))
        return b
    return tuple(Equation(label, build(snake))
                 for label, snake in zip(labels, (_snake_x, _snake_y)))


def _unit_right(obj: str):
    def unit_r(g):
        A = g.object(obj)
        return (seq(par(identity([A]), generator("u", [], [A])),
                    generator("m", [A, A], [A])), identity([A]))
    return unit_r


def _linear_monoid_equations() -> tuple[Equation, ...]:
    def d_coincide(g):
        return _d_left(g), _d_right(g)

    def k_coincide(g):
        return _k_left(g), _k_right(g)

    return ((Equation("unit-right", _unit_right("A")),)
            + _snakes(("snake-right-dual-a", "snake-right-dual-b"),
                      "eta_R", "eps_R", flip=True)
            + (Equation("comult-coincide", d_coincide),
               Equation("counit-coincide", k_coincide)))


def _dagger_dual_right(g):
    A, B = g.object("A"), g.object("B")
    return dagger(_cap("eps_R", A, B)), _cup("eta_R", B, A)


def _monoid_actions_equations() -> tuple[Equation, ...]:
    def unit_r(g):
        A, B = g.object("A"), g.object("B")
        return (seq(par(identity([B]), generator("u", [], [A])),
                    generator("act_r", [B, A], [B])), identity([B]))

    def assoc_r(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(par(identity([B]), generator("m", [A, A], [A])),
                  generator("act_r", [B, A], [B]))
        rhs = seq(par(generator("act_r", [B, A], [B]), identity([A])),
                  generator("act_r", [B, A], [B]))
        return lhs, rhs

    def counit_r(g):
        A, B = g.object("A"), g.object("B")
        return (seq(generator("coact_r", [A], [A, B]),
                    par(identity([A]), generator("k_b", [B], []))),
                identity([A]))

    def coassoc_r(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(generator("coact_r", [A], [A, B]),
                  par(identity([A]), generator("d_b", [B], [B, B])))
        rhs = seq(generator("coact_r", [A], [A, B]),
                  par(generator("coact_r", [A], [A, B]), identity([B])))
        return lhs, rhs

    monoid_unit_r = Equation("monoid-unit-right", _unit_right("A"))
    comonoid_unit_r = _flipped((Equation("unit-right", _unit_right("B")),),
                               _reversal({"m": "d_b", "u": "k_b"}),
                               {"comonoid-counit-right": "unit-right"})
    return ((monoid_unit_r,) + comonoid_unit_r
            + (Equation("action-unit-right", unit_r),
               Equation("action-assoc-right", assoc_r),
               Equation("coaction-counit-right", counit_r),
               Equation("coaction-coassoc-right", coassoc_r)))


def _frobenius_equations() -> tuple[Equation, ...]:
    def unitary_r(g):
        A, B = g.object("A"), g.object("B")
        return generator("alpha", [A], [B]), seq(
            par(_cup("eta_R", B, A), identity([A])),
            par(identity([B]), generator("m", [A, A], [A])),
            par(identity([B]), generator("alpha", [A], [B])),
            par(identity([B]), _k_right(g)))

    def action_r(g):
        A, B = g.object("A"), g.object("B")
        rhs = seq(par(_cup("eta_R", B, A), identity([A]),
                      generator("alpha", [A], [B])),
                  par(identity([B]), generator("m", [A, A], [A]),
                      identity([B])),
                  par(identity([B]), _cap("eps_R", A, B)),
                  generator("alpha_inv", [B], [A]))
        return generator("m", [A, A], [A]), rhs

    return (Equation("unitary-coincidence-right", unitary_r),
            Equation("action-coincidence-right", action_r))


def _frobenius_right(g):
    A = g.object("A")
    mid = seq(generator("m", [A, A], [A]),
              generator("d", [A], [A, A]))
    lhs = seq(par(identity([A]), generator("d", [A], [A, A])),
              par(generator("m", [A, A], [A]), identity([A])))
    return lhs, mid


def _splitting_right(g):
    A, B = g.object("A"), g.object("B")
    ub = generator("ub", [A], [B])
    pre = seq(par(identity([A]), _cup("eta_R", B, A)),
              permutation([A, B, A], [2, 0, 1]),
              par(_e_a(g), _e_a(g), _e_b(g)),
              par(generator("m", [A, A], [A]), identity([B])),
              par(seq(generator("ub", [A], [B]), _k_right(g)),
                  identity([B])))
    return ub, pre


def _bialgebra_par_equations() -> tuple[Equation, ...]:
    def mult_comult(g):
        B = g.object("B")
        lhs = seq(_m_left(g), _d_left(g))
        rhs = seq(par(_d_left(g), _d_left(g)),
                  permutation([B, B, B, B], [0, 2, 1, 3]),
                  par(_m_left(g), _m_left(g)))
        return lhs, rhs

    def mult_counit(g):
        return (seq(_m_left(g), _k_left(g)),
                par(_k_left(g), _k_left(g)))

    def unit_comult(g):
        return seq(_u_left(g), _d_left(g)), par(_u_left(g), _u_left(g))

    def unit_counit(g):
        return seq(_u_left(g), _k_left(g)), empty()

    return (
        Equation("par-mult-comult", mult_comult),
        Equation("par-mult-counit", mult_counit),
        Equation("par-unit-comult", unit_comult),
        Equation("par-unit-counit", unit_counit),
    )


def _complementary_equations() -> tuple[Equation, ...]:
    def comp1(side: str):
        def build(g):
            A, B = g.object("A"), g.object("B")
            if side == "L":
                lhs = seq(par(identity([A]), _u_left(g)),
                          permutation([A, B], [1, 0]),
                          _cap("eps_L", B, A))
            else:
                lhs = seq(par(identity([A]), _u_right(g)),
                          _cap("eps_R", A, B))
            return lhs, generator("k", [A], [])
        return build

    def comp2(side: str):
        def build(g):
            A, B = g.object("A"), g.object("B")
            if side == "L":
                lhs = seq(_cup("tau_L", A, B),
                          par(identity([A]), _k_left(g)))
            else:
                lhs = seq(_cup("tau_R", B, A),
                          par(_k_right(g), identity([A])))
            return lhs, generator("u", [], [A])
        return build

    def comp3(side: str):
        def build(g):
            if side == "L":
                return (seq(_u_left(g), _d_left(g)),
                        par(_u_left(g), _u_left(g)))
            return (seq(_u_right(g), _d_right(g)),
                    par(_u_right(g), _u_right(g)))
        return build

    return (Equation("comp.1-left", comp1("L")),
            Equation("comp.1-right", comp1("R")),
            Equation("comp.2-left", comp2("L")),
            Equation("comp.2-right", comp2("R")),
            Equation("comp.3-left", comp3("L")),
            Equation("comp.3-right", comp3("R")))


def _hopf_equations() -> tuple[Equation, ...]:
    def hopf_tensor(side: str):
        def build(g):
            A = g.object("A")
            s = _antipode_tensor(g)
            first = par(s, identity([A])) if side == "L" \
                else par(identity([A]), s)
            lhs = seq(generator("d", [A], [A, A]), first,
                      generator("m", [A, A], [A]))
            rhs = seq(generator("k", [A], []), generator("u", [], [A]))
            return lhs, rhs
        return build

    def hopf_par(side: str):
        def build(g):
            B = g.object("B")
            s = _antipode_par(g)
            first = par(s, identity([B])) if side == "L" \
                else par(identity([B]), s)
            lhs = seq(_d_left(g), first, _m_left(g))
            rhs = seq(_k_left(g), _u_left(g))
            return lhs, rhs
        return build

    return (Equation("hopf-tensor-left", hopf_tensor("L")),
            Equation("hopf-tensor-right", hopf_tensor("R")),
            Equation("hopf-par-left", hopf_par("L")),
            Equation("hopf-par-right", hopf_par("R")))


def hand_written() -> dict[tuple[str, str], Equation]:
    """Each (suite, label) whose template reads a right-hand or par-side
    map or is a right-hand or par-side equation, with the template as
    typed out by hand.  The comonoid suites take the monoid side's
    references through the flip of `ldckit.suites`."""
    monoid = _linear_monoid_equations()
    dagger_monoid = monoid + (Equation("dagger-dual-right",
                                       _dagger_dual_right),)
    unit_r = (Equation("unit-right", _unit_right("A")),)
    counit_r = _flipped(unit_r, _reversal({"m": "d", "u": "k"}),
                        {"counit-right": "unit-right"})

    def comonoid(eqs):
        return _flipped(eqs, _reversal(_MONOID_TO_COMONOID),
                        _COMONOID_LABELS)

    bialgebra_snakes = sum((_snakes((f"snake-{name}-x", f"snake-{name}-y"),
                                    cup, cap, True)
                            for name, cup, cap in (
                                ("monoid-right", "eta_R", "eps_R"),
                                ("comonoid-right", "tau_R", "gam_R"))), ())
    suites = {
        "linear-monoid": monoid,
        "dagger-linear-monoid": dagger_monoid,
        "linear-comonoid": comonoid(monoid),
        "dagger-linear-comonoid": comonoid(dagger_monoid) + (
            _is_dagger("mult-is-comult-dagger", _m_left, "d"),
            _is_dagger("unit-is-counit-dagger", _u_left, "k")),
        "monoid-actions": _monoid_actions_equations(),
        "frobenius-coincidence": _frobenius_equations(),
        "dagger-frobenius": _frobenius_equations(),
        "frobenius-algebra": unit_r + counit_r + (
            Equation("frobenius-right", _frobenius_right),),
        "frobenius-splitting-cond": (
            Equation("splitting-right", _splitting_right),),
        "linear-bialgebra": unit_r + counit_r + bialgebra_snakes
        + _bialgebra_par_equations(),
        "complementary": _complementary_equations(),
        "hopf": _hopf_equations(),
    }
    return {(suite, eq.label): eq
            for suite, eqs in suites.items() for eq in eqs}


# -- the degree window read from a gradings table -----------------------------

def atom_typed(g: Gadget) -> tuple[Gadget, dict[str, list[int]]]:
    """`g`, whose objects A and B are !X and !Y, typed on the atoms bangA
    and bangB (one atom when A = B) that hold the exponentials' bases, and
    the gradings table of its objects."""
    atoms, objects, gradings = {}, {}, {}
    for role in ("A", "B"):
        t = g.object(role)
        assert isinstance(t, Bang)
        name = "bangA" if t == g.object("A") else "bangB"
        labels = interp(t.inner, g.env)[1]
        basis = MultisetBasis(labels, g.env.degree)
        atoms[name] = (basis.dim, tuple(basis.labels()))
        objects[role] = Atom(name)
        gradings[role] = basis.shape.degrees.tolist()
    env = ModelEnv(atoms=atoms, degree=g.env.degree)
    return Gadget(g.kind, objects, dict(g.morphisms), env), gradings


def _degree_vector(t: ObjectExpr, env: ModelEnv,
                   table: dict[ObjectExpr, np.ndarray]) -> np.ndarray:
    if t in table:
        return table[t]
    if isinstance(t, (Top, Bot)):
        return np.zeros(1, dtype=int)
    if isinstance(t, (Tensor, Par)):
        dl = _degree_vector(t.left, env, table)
        dr = _degree_vector(t.right, env, table)
        return np.add.outer(dl, dr).reshape(-1)
    if isinstance(t, Dagger):
        return _degree_vector(t.inner, env, table)
    return np.zeros(interp(t, env)[0], dtype=int)


def _boundary_degrees(types: Sequence[ObjectExpr], env: ModelEnv,
                      table: dict[ObjectExpr, np.ndarray]) -> np.ndarray:
    out = np.zeros(1, dtype=int)
    for t in types:
        out = np.add.outer(out, _degree_vector(t, env, table)).reshape(-1)
    return out


def graded_check_suite(g: Gadget, suite: EquationSuite,
                       gradings: dict[str, list[int]],
                       tol: float = 1e-9) -> SuiteReport:
    for role in suite.roles:
        if role not in g.morphisms:
            raise MissingRole(role)
    sides = [_sides(eq, g) for eq in suite.equations]
    env = suite_env(g, frozenset().union(
        *(c.generator_names for pair in sides for c in pair)))
    table = {}
    if gradings:
        table = {g.objects[role]: np.asarray(vec, dtype=int)
                 for role, vec in gradings.items() if role in g.objects}
    residuals: dict[str, float] = {}
    passed = True
    for eq, (lhs_c, rhs_c) in zip(suite.equations, sides):
        lhs = evaluate(lhs_c, env)
        rhs = evaluate(rhs_c, env)
        if table:
            rows = _boundary_degrees(lhs_c.output_types(), env, table)
            cols = _boundary_degrees(lhs_c.input_types(), env, table)
            # entries outside the window count as 0 on both sides, which
            # moves neither the residual nor the scale (maxima of moduli)
            window = np.ix_(rows <= env.degree, cols <= env.degree)
            lhs, rhs = lhs[window], rhs[window]
        ok, residual = matrices_equal(lhs, rhs, tol)
        residuals[eq.label] = residual
        passed = passed and ok
    return SuiteReport(suite=suite.name, passed=passed, tol=tol,
                      residuals=residuals)
