"""The complementarity conditions of a binary idempotent as first written,
kept as the reference that `ldckit.suites` is tested against.

Every structure map is sandwiched between e_A = ub;vb and e_B = vb;ub by
hand, and the `complementary` equations are typed out a second time over
the sandwiched maps.
"""
from __future__ import annotations

from ldckit.circuit import Circuit, generator, identity, par, permutation, seq
from ldckit.gadget import Gadget
from ldckit.suites import (_LINEAR_BIALGEBRA_ROLES, Equation, EquationSuite,
                           _cap, _cup, _e_a, _e_b)


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
