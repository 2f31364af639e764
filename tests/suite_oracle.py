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
"""
from __future__ import annotations

from ldckit.circuit import (Circuit, dagger, empty, generator, identity, par,
                            permutation, seq)
from ldckit.gadget import Gadget
from ldckit.suites import (_COMONOID_LABELS, _LINEAR_BIALGEBRA_ROLES,
                           _MONOID_TO_COMONOID, Equation, EquationSuite,
                           _antipode_tensor, _cap, _cup, _d_left, _e_a, _e_b,
                           _flipped, _is_dagger, _k_left, _reversal,
                           _snake_x, _snake_y)


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
