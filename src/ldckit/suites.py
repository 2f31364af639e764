"""Equation suites for role-tagged structure gadgets.

Each suite is a named list of (label, lhs, rhs) circuit templates over the
roles of a gadget kind.  Checking a suite instantiates every template,
evaluates both sides in the matrix model, and compares them entrywise.

Derived generators are available inside templates for every morphism role r:
``r_dag`` (conjugate transpose) and ``r_inv`` (matrix inverse, square
invertible roles only).  Templates do not name ``r_dag`` themselves: every
dagger side is a plain circuit read through `circuit.dagger`, just as every
comonoid side is a monoid side read through `circuit.reverse`.

Each structure is typed out on one side only.  A right-hand map or equation
is its left-hand twin read through `circuit.mirror`, which renames each
left-hand role (``eta_L``, ``eps_L``, ``tau_L``, ``gam_L``, ``act_l``,
``coact_l``) to its right-hand twin and back; the comonoid's derived maps
are the monoid's flipped.  The par-side bialgebra and Hopf laws are the
tensor-side ones written on the dual object B, with m, d, k, u and the
antipode s replaced by `circuit.substitute` with the maps derived on B, and
the complementarity conditions of an idempotent are the `complementary`
suite with every role replaced by its sandwiched image.  The few equations
still written twice say why where they are built: the snakes of a dual,
`cup-coincidence-right` and the right Hopf laws.

Every generator is typed by the one role-signature table `_SIGNATURES`
(`_role`), on the gadget's objects, except the few names that mean
different maps in different suites, which are typed where they are built
and listed beside `_role`.

Both flavours of idempotent follow one leg rule (`_absorbed`): a role with
idempotents on its absorbed legs (side, object) equals the role with them
on every leg, the sandwich.  Sectional idempotents are absorbed on (dom, A)
and (cod, B), retractional ones on (cod, A) and (dom, B), B being A's dual.
The dual and monoid flavour suites are read off the rule; the comonoid
ones are the monoid ones of the other flavour, flipped.

A gadget over an exponential (a `Bang` or `Quest` object) is compared
only on boundary entries whose total degree, read from the types
(`_boundary_degrees`), is within the truncation window.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Optional, Sequence

import numpy as np

from .circuit import (Circuit, dagger, empty, generator, identity, mirror,
                      par, permutation, reverse, seq, substitute)
from .errors import LdcError, MissingRole, SuiteFailure, tolerance
from .gadget import Gadget, _exponential
from .model import ModelEnv, evaluate, interp, matrices_equal
from .multiset import _multisets
from .objects import Bang, ObjectExpr, Quest, factors

Template = Callable[[Gadget], tuple[Circuit, Circuit]]


@dataclass(frozen=True)
class Equation:
    label: str
    build: Template
    margin: int = 0   # no equation narrows the degree window

    def __post_init__(self) -> None:
        if not (isinstance(self.margin, int) and self.margin == 0):
            raise LdcError("every equation is compared on the whole degree "
                           f"window, so its margin is 0, got {self.margin!r}")


@dataclass(frozen=True)
class EquationSuite:
    name: str
    kind: str
    roles: tuple[str, ...]
    equations: tuple[Equation, ...]


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    tol: float
    residuals: dict[str, float]

    def __post_init__(self) -> None:
        self.tol = tolerance(self.tol)

    def worst(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.passed,
            "tol": self.tol,
            "equations": [{"label": k, "residual": v}
                          for k, v in self.residuals.items()],
        }


# -- evaluation environment -------------------------------------------------

# The derived generators of a role r: r_dag and r_inv (if invertible).
_DERIVED = {"_dag": lambda m: np.conj(m).T, "_inv": np.linalg.inv}


def suite_env(g: Gadget, reads: Optional[Collection[str]] = None
              ) -> ModelEnv:
    """The gadget's roles and their derived generators, only those named
    in `reads` when it is given.  The roles are bound as stored, each in
    its field since the `Gadget` was built; only the derived generators go
    through `ModelEnv.assign`."""
    env = ModelEnv(atoms=g.env.atoms, degree=g.env.degree)
    for role, mat in g.morphisms.items():
        derived = [suffix for suffix in _DERIVED
                   if reads is None or role + suffix in reads]
        if not derived and reads is not None and role not in reads:
            continue
        env.generators[role] = mat
        for suffix in derived:
            try:
                env.assign(role + suffix, _DERIVED[suffix](mat))
            except np.linalg.LinAlgError:   # not square, or singular
                pass
    return env


def _boundary_degrees(types: Sequence[ObjectExpr], env: ModelEnv
                      ) -> np.ndarray:
    """The grade of each basis vector of the boundary `types`: the sum of
    its multiset sizes on `Bang` and `Quest` factors, atoms adding 0."""
    out = np.zeros(1, dtype=int)
    for f in (f for t in types for f in factors(t)):
        vec = (_multisets(interp(f.inner, env)[0], env.degree).degrees
               if isinstance(f, (Bang, Quest))
               else np.zeros(interp(f, env)[0], dtype=int))
        out = np.add.outer(out, vec).reshape(-1)
    return out


# Each equation's two sides by equation and object typing, oldest out
# first: a template reads nothing of a gadget but its objects, and its
# circuits keep their compiled contractions (`model.evaluate`).  The
# builders do not check what they assemble (`circuit`), so each side is
# checked once, by `Circuit(...)`, as it enters the cache.
_TEMPLATES: dict = {}
_TEMPLATES_KEPT = 1024


def _sides(eq: Equation, g: Gadget) -> tuple[Circuit, Circuit]:
    key = (eq, frozenset(g.objects.items()))
    sides = _TEMPLATES.get(key)
    if sides is None:
        if len(_TEMPLATES) >= _TEMPLATES_KEPT:
            del _TEMPLATES[next(iter(_TEMPLATES))]
        sides = _TEMPLATES[key] = tuple(
            Circuit(c.wires, c.nodes, c.inputs, c.outputs)
            for c in eq.build(g))
    return sides


def check_suite(g: Gadget, suite: EquationSuite,
                tol: float = 1e-9) -> SuiteReport:
    for role in suite.roles:
        if role not in g.morphisms:
            raise MissingRole(role)
    sides = [_sides(eq, g) for eq in suite.equations]
    env = suite_env(g, frozenset().union(
        *(c.generator_names for pair in sides for c in pair)))
    windowed = _exponential(g.objects)
    residuals: dict[str, float] = {}
    passed = True
    for eq, (lhs_c, rhs_c) in zip(suite.equations, sides):
        lhs = evaluate(lhs_c, env)
        rhs = evaluate(rhs_c, env)
        if windowed:
            rows = _boundary_degrees(lhs_c.output_types(), env)
            cols = _boundary_degrees(lhs_c.input_types(), env)
            # entries outside the window count as 0 on both sides, which
            # moves neither the residual nor the scale (maxima of moduli)
            window = np.ix_(rows <= env.degree, cols <= env.degree)
            lhs, rhs = lhs[window], rhs[window]
        ok, residual = matrices_equal(lhs, rhs, tol)
        residuals[eq.label] = residual
        passed = passed and ok
    return SuiteReport(suite=suite.name, passed=passed, tol=tol,
                      residuals=residuals)


def _require_suite(g: Gadget, name: str, tol: float) -> SuiteReport:
    """The report of `g` on the suite `name`; `SuiteFailure` unless it
    passes."""
    report = check_suite(g, SUITES[name], tol)
    if not report.passed:
        raise SuiteFailure(name, f"worst residual {report.worst():.3e}")
    return report


# -- template building blocks ----------------------------------------------

# Typed where they are built, not by `_SIGNATURES`, are the names that mean
# different maps in different suites: binary-idempotent's u: A -> B and
# v: B -> A, where the monoid's u is a unit; eta2/eps2, a dual on A2, B2 in
# dual-morphism and on C, D in tensor-of-duals; and the coherence suite's
# eta: Y -> X and eps: X -> Y, elsewhere a dual's cup and cap.  So is
# preunitary's phi, read A -> A on a gadget without B (`_hermitian`).
def _role(r: str, g: Gadget, on: str = "A") -> Circuit:
    """The generator of role `r` typed by `_SIGNATURES` on the objects of
    `g`, with the table's A read as `on`."""
    dom, cod = ([g.object(on if o == "A" else o) for o in objs]
                for objs in _SIGNATURES[r])
    return generator(r, dom, cod)


def _snake_x(X: list[ObjectExpr], Y: list[ObjectExpr],
             cup: Circuit, cap: Circuit) -> tuple[Circuit, Circuit]:
    """(1_X tensored with the cup) then cap applied to (Y, X) equals 1_X."""
    nX, nY = len(X), len(Y)
    order = list(range(nX, 2 * nX + nY)) + list(range(nX))
    lhs = seq(par(identity(X), cup),
              permutation(X + X + Y, order),
              par(identity(X), cap))
    return lhs, identity(X)


def _snake_y(X: list[ObjectExpr], Y: list[ObjectExpr],
             cup: Circuit, cap: Circuit) -> tuple[Circuit, Circuit]:
    lhs = seq(par(identity(Y), cup), par(cap, identity(Y)))
    return lhs, identity(Y)


def _snakes(labels: tuple[str, str], cup: str,
            cap: str) -> tuple[Equation, ...]:
    """The two snake equations of the dual A -| B with unit `cup` and
    counit `cap`."""
    def build(snake):
        return lambda g: snake([g.object("A")], [g.object("B")],
                               _role(cup, g), _role(cap, g))
    return tuple(Equation(label, build(snake))
                 for label, snake in zip(labels, (_snake_x, _snake_y)))


# The comonoid side of a linear monoid is the monoid side with every arrow
# reversed (the compact reflection): the role each monoid role turns into.
# Roles it lacks, such as an idempotent e, keep their names.
_MONOID_TO_COMONOID = {
    "m": "d", "u": "k",
    "eps_R": "tau_L", "eta_R": "gam_L",
    "eps_L": "tau_R", "eta_L": "gam_R",
}

# Every role of a linear bialgebra as (domain objects, codomain objects):
# the monoid side, then the comonoid side as its flip.
_ROLE_SIGNATURES = {
    "m": (("A", "A"), ("A",)), "u": ((), ("A",)),
    "eta_L": ((), ("A", "B")), "eps_L": (("B", "A"), ()),
    "eta_R": ((), ("B", "A")), "eps_R": (("A", "B"), ()),
}
_ROLE_SIGNATURES |= {new: _ROLE_SIGNATURES[old][::-1]
                     for old, new in _MONOID_TO_COMONOID.items()}

# The signature of every role whose name means one map in every suite: a
# linear bialgebra's, a dual's cup and cap, the idempotents, the antipode
# placeholder s, and the roles of one suite each.
_SIGNATURES = _ROLE_SIGNATURES | {
    "eta": _ROLE_SIGNATURES["eta_L"], "eps": _ROLE_SIGNATURES["eps_L"],
    "e": (("A",), ("A",)), "e_a": (("A",), ("A",)), "e_b": (("B",), ("B",)),
    "s": (("A",), ("A",)), "ub": (("A",), ("B",)), "vb": (("B",), ("A",)),
    "alpha": (("A",), ("B",)), "alpha_inv": (("B",), ("A",)),
    "p": (("A",), ("B",)), "q": (("A",), ("B",)),
    "f": (("A",), ("A2",)), "g": (("B2",), ("B",)),
    "act_l": (("A", "B"), ("B",)), "act_r": (("B", "A"), ("B",)),
    "coact_l": (("A",), ("B", "A")), "coact_r": (("A",), ("A", "B")),
    "d_b": (("B",), ("B", "B")), "k_b": (("B",), ()),
    "nabla": (("X", "X"), ("X",)), "Delta": (("X",), ("X", "X")),
    "unit": ((), ("X",)), "counit": (("X",), ()),
    "mu": (("Z",), ("X",)), "delta": (("X",), ("Z",)),
}

# Each comonoid-side label with the monoid-side label of the equation it
# flips.  The flip exchanges the two duals and the two snakes of each.
_COMONOID_LABELS = {
    "coassoc": "assoc",
    "counit-left": "unit-left",
    "counit-right": "unit-right",
    "snake-left-dual-a": "snake-right-dual-b",
    "snake-left-dual-b": "snake-right-dual-a",
    "snake-right-dual-a": "snake-left-dual-b",
    "snake-right-dual-b": "snake-left-dual-a",
    "mult-coincide": "comult-coincide",
    "unit-coincide": "counit-coincide",
    "dagger-dual-left": "dagger-dual-right",
    "dagger-dual-right": "dagger-dual-left",
    "comult-absorption": "mult-absorption",
    "counit-absorption": "unit-absorption",
    "e-idempotent": "e-idempotent",
}


def _with_dag(table: Mapping[str, str]) -> dict[str, str]:
    """`table`, and each of its names with its ``_dag`` form."""
    return {role + suffix: new + suffix for role, new in table.items()
            for suffix in ("", "_dag")}


def _reversal(table: Mapping[str, str]) -> Callable[[Circuit], Circuit]:
    """`reverse` with each generator renamed through `table`, and its
    ``_dag`` form with it."""
    rename = _with_dag(table)
    return lambda c: reverse(c, rename)


_to_comonoid = _reversal(_MONOID_TO_COMONOID)

# The right-hand twin of each left-hand role.  A right-hand map or equation
# is its left-hand twin reflected left to right (`circuit.mirror`), which
# renames each role to its twin and back.
_LEFT_TO_RIGHT = {"eta_L": "eta_R", "eps_L": "eps_R", "tau_L": "tau_R",
                  "gam_L": "gam_R", "act_l": "act_r", "coact_l": "coact_r"}
_MIRROR_NAMES = _with_dag(_LEFT_TO_RIGHT | {right: left for left, right
                                            in _LEFT_TO_RIGHT.items()})


def _mirror(c: Circuit) -> Circuit:
    return mirror(c, _MIRROR_NAMES)


def _read(build: Callable[[Gadget], Circuit],
          through: Callable[[Circuit], Circuit]
          ) -> Callable[[Gadget], Circuit]:
    """The builder of `build`'s circuit read `through` a reflection."""
    return lambda g: through(build(g))


def _flipped(equations: Sequence[Equation], flip: Callable[[Circuit], Circuit],
             labels: Mapping[str, str] = _COMONOID_LABELS
             ) -> tuple[Equation, ...]:
    """The equations read off `equations` by `flip` applied to both sides:
    each label of `labels` with the label of the equation it flips, in the
    order of `labels`."""
    by_label = {eq.label: eq for eq in equations}

    def flipped(eq: Equation) -> Template:
        return lambda g: tuple(flip(c) for c in eq.build(g))

    return tuple(Equation(new, flipped(by_label[old]))
                 for new, old in labels.items() if old in by_label)


def _left_right(stem: str, build: Template) -> tuple[Equation, ...]:
    """The equation `stem`-left built by `build`, then its mirror image
    `stem`-right."""
    left = Equation(f"{stem}-left", build)
    return (left,) + _flipped((left,), _mirror, {f"{stem}-right": left.label})


def _snake_pairs(label: str, ends: str, cup: str,
                 cap: str) -> tuple[Equation, ...]:
    """The snakes of the left dual A -| B with unit `cup` and counit `cap`,
    then their mirror images, the snakes of the right dual B -| A: each
    right snake mirrors the other left one.  Each is labelled `label`
    formatted with its side and with its end of `ends`."""
    left, right = ([label.format(side, end) for end in ends]
                   for side in ("left", "right"))
    snakes = _snakes(left, cup, cap)
    return snakes + _flipped(snakes, _mirror, dict(zip(right, left[::-1])))


def _substituted(equations: Sequence[Equation],
                 table: Mapping[str, Callable[[Gadget], Circuit]]
                 ) -> tuple[Equation, ...]:
    """`equations` with each generator named in `table` replaced by the
    circuit that its entry builds on the gadget (`circuit.substitute`).
    Only the entries that name a generator of the sides are built."""
    def substituted(eq: Equation) -> Template:
        def build(g):
            sides = eq.build(g)
            names = frozenset().union(*(c.generator_names for c in sides))
            subs = {name: make(g) for name, make in table.items()
                    if name in names}
            return tuple(substitute(c, subs) for c in sides)
        return build

    return tuple(Equation(eq.label, substituted(eq)) for eq in equations)


def _flipped_suite(suite: EquationSuite, name: str, kind: str,
                   extra: tuple[Equation, ...] = ()) -> EquationSuite:
    return EquationSuite(
        name, kind,
        tuple(_MONOID_TO_COMONOID.get(r, r) for r in suite.roles),
        _flipped(suite.equations, _to_comonoid) + extra)


def _monoid_laws(obj: str = "A", prefix: str = "") -> tuple[Equation, ...]:
    def assoc(g):
        A, m = g.object(obj), _role("m", g, obj)
        return (seq(par(m, identity([A])), m),
                seq(par(identity([A]), m), m))

    def unit_l(g):
        A = g.object(obj)
        return (seq(par(_role("u", g, obj), identity([A])),
                    _role("m", g, obj)), identity([A]))

    return (Equation(f"{prefix}assoc", assoc),
            *_left_right(f"{prefix}unit", unit_l))


def _comonoid_laws(obj: str = "A", d: str = "d", k: str = "k",
                   prefix: str = "") -> tuple[Equation, ...]:
    return tuple(Equation(prefix + eq.label, eq.build)
                 for eq in _flipped(_monoid_laws(obj),
                                    _reversal({"m": d, "u": k})))


# The comonoid laws alone, kept out of `SUITES`: the check of
# `exponential.comonoid_residual`, on a gadget of one object.
_COMONOID = EquationSuite("comonoid-laws", "comonoid", ("d", "k"),
                          _comonoid_laws())


# Derived structure on the dual object of a linear monoid (m, u) with left
# duals (eta_L, eps_L): A -| B and right duals (eta_R, eps_R): B -| A.  Each
# right-hand map is the mirror image of its left-hand twin.

def _d_left(g: Gadget) -> Circuit:
    A, B, eta = g.object("A"), g.object("B"), _role("eta_L", g)
    return seq(par(identity([B]), eta, eta),
               permutation([B, A, B, A, B], [1, 3, 0, 4, 2]),
               par(_role("m", g), identity([B, B, B])),
               permutation([A, B, B, B], [1, 0, 2, 3]),
               par(_role("eps_L", g), identity([B, B])))


def _k_left(g: Gadget) -> Circuit:
    return seq(par(identity([g.object("B")]), _role("u", g)),
               _role("eps_L", g))


_d_right, _k_right = _read(_d_left, _mirror), _read(_k_left, _mirror)

# Derived structure on the dual object of a linear comonoid (d, k) with
# duals (tau_L, gam_L): A -| B and (tau_R, gam_R): B -| A: the comonoid flip
# of the monoid's right-hand maps.
_m_left = _read(_d_right, _to_comonoid)
_u_left = _read(_k_right, _to_comonoid)


# Actions and coactions derived from a linear monoid.

def _act_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([A, B]), _role("eta_L", g)),
               permutation([A, B, A, B], [2, 0, 1, 3]),
               par(_role("m", g), identity([B, B])),
               permutation([A, B, B], [1, 0, 2]),
               par(_role("eps_L", g), identity([B])))


def _coact_right(g: Gadget) -> Circuit:
    return seq(par(identity([g.object("A")]), _role("eta_L", g)),
               par(_role("m", g), identity([g.object("B")])))


_act_right = _read(_act_left, _mirror)
_coact_left = _read(_coact_right, _mirror)


# Antipodes of a complementary system.

def _antipode_tensor(g: Gadget) -> Circuit:
    A = g.object("A")
    return seq(par(_role("tau_L", g), identity([A])),
               par(identity([A]), _role("m", g)),
               par(identity([A]), _k_left(g)))


def _antipode_par(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(_u_left(g), identity([B])),
               par(_role("d", g), identity([B])),
               par(identity([A]), _role("gam_R", g)))


# The legs on which each flavour is absorbed (see the module docstring);
# a role absorbed on every leg, such as a retractional unit, has no equation.
_SECTIONAL = frozenset({("dom", "A"), ("cod", "B")})
_RETRACTIONAL = frozenset({("cod", "A"), ("dom", "B")})
_FLAVOURS = {"sectional": _SECTIONAL, "retractional": _RETRACTIONAL}
_EVERY_LEG = _SECTIONAL | _RETRACTIONAL

_UB_VB = {"A": ("ub", "vb"), "B": ("vb", "ub")}


def _composite(roles: Sequence[str], g: Gadget) -> Circuit:
    return seq(*(_role(r, g) for r in roles))


def _absorbed(role: str, idempotents: Mapping[str, Sequence[str]],
              legs: frozenset) -> Callable[[Gadget], Circuit]:
    """The builder of `role` with, on each of its legs in `legs`, the
    composite that `idempotents` names for the object of that leg."""
    dom, cod = _SIGNATURES[role]

    def build(g: Gadget) -> Circuit:
        def on(side: str, objs: tuple[str, ...]) -> Circuit:
            return par(empty(), *(
                _composite(idempotents[o], g) if (side, o) in legs
                else identity([g.object(o)]) for o in objs))

        return seq(on("dom", dom), _role(role, g), on("cod", cod))
    return build


def _absorptions(roles: Mapping[str, str],
                 idempotents: Mapping[str, Sequence[str]],
                 legs: frozenset) -> tuple[Equation, ...]:
    """For each label of `roles`, its role with `idempotents` absorbed on
    `legs`: none where `legs` holds every leg of the role."""
    def build(role: str) -> Template:
        return lambda g: (_absorbed(role, idempotents, legs)(g),
                          _absorbed(role, idempotents, _EVERY_LEG)(g))

    return tuple(Equation(label, build(role))
                 for label, role in roles.items()
                 if not {("dom", o) for o in _SIGNATURES[role][0]}
                 | {("cod", o) for o in _SIGNATURES[role][1]} <= legs)


# -- suite definitions ------------------------------------------------------

_SNAKE_LABELS = ("snake-left", "snake-right")


def _dual_suite() -> EquationSuite:
    # Both snakes are written out: the mirror of the cup eta: () -> A, B is
    # a cup () -> B, A of the same name, ill-typed when A != B.
    return EquationSuite("dual", "dual", ("eta", "eps"),
                         _snakes(_SNAKE_LABELS, "eta", "eps"))


def _dual_morphism_suite() -> EquationSuite:
    def eq_a(g):
        A2, B2 = g.object("A2"), g.object("B2")
        lhs = seq(generator("eta2", [], [A2, B2]),
                  par(identity([A2]), _role("g", g)))
        rhs = seq(_role("eta", g),
                  par(_role("f", g), identity([g.object("B")])))
        return lhs, rhs

    def eq_b(g):
        A2, B2 = g.object("A2"), g.object("B2")
        lhs = seq(par(identity([B2]), _role("f", g)),
                  generator("eps2", [B2, A2], []))
        rhs = seq(par(_role("g", g), identity([g.object("A")])),
                  _role("eps", g))
        return lhs, rhs

    return EquationSuite("dual-morphism", "dual_morphism",
                        ("eta", "eps", "eta2", "eps2", "f", "g"), (
                            Equation("cup-morphism", eq_a),
                            Equation("cap-morphism", eq_b),
                        ))


@functools.cache   # one equation, so its sides are cached once
def _idem(role: str) -> Equation:
    def build(g):
        e = _role(role, g)
        return seq(e, e), e
    return Equation(f"{role}-idempotent", build)


@functools.cache
def _dual_absorption(cup: str, cap: str, legs: frozenset) -> EquationSuite:
    """e_a on A and e_b on B absorbed on `legs` by the dual with unit `cup`
    and counit `cap`, named by the flavour of `legs` as the dual reads them:
    a dual B -| A reads A as B and B as A, which exchanges the flavours."""
    exchanged = _SIGNATURES[cup][1][0] == "B"
    flavour = next(f for f, f_legs in _FLAVOURS.items()
                   if (f_legs == legs) != exchanged)
    return EquationSuite(f"dual-{flavour}", "dual_idempotent",
                         (cup, cap, "e_a", "e_b"),
                         _absorptions({"cup-absorption": cup,
                                       "cap-absorption": cap},
                                      {"A": ("e_a",), "B": ("e_b",)}, legs)
                         + (_idem("e_a"), _idem("e_b")))


def tensor_of_duals_cup(g: Gadget) -> Circuit:
    """Composite cup for (A (x) C) -| (D (+) B) from A -| B and C -| D."""
    A, B, C, D = (g.object(o) for o in "ABCD")
    return seq(par(_role("eta", g), generator("eta2", [], [C, D])),
               permutation([A, B, C, D], [0, 2, 3, 1]))


def tensor_of_duals_cap(g: Gadget) -> Circuit:
    A, B, C, D = (g.object(o) for o in "ABCD")
    return seq(permutation([D, B, A, C], [0, 3, 1, 2]),
               par(generator("eps2", [D, C], []), _role("eps", g)))


def _tensor_of_duals_suite() -> EquationSuite:
    def snake(side):
        def build(g):
            A, C, D, B = (g.object(o) for o in "ACDB")
            return side([A, C], [D, B], tensor_of_duals_cup(g),
                        tensor_of_duals_cap(g))
        return build

    return EquationSuite("tensor-of-duals", "dual_pair",
                        ("eta", "eps", "eta2", "eps2"), (
                            Equation("snake-left", snake(_snake_x)),
                            Equation("snake-right", snake(_snake_y)),
                        ))


def _dagger_dual_suite() -> EquationSuite:
    def eq_a(g):
        B = g.object("B")
        lhs = seq(dagger(_role("eps", g)), par(identity([B]), _role("q", g)))
        rhs = seq(_role("eta", g), par(_role("p", g), identity([B])))
        return lhs, rhs

    def eq_b(g):
        A = g.object("A")
        lhs = seq(par(identity([A]), _role("p", g)), dagger(_role("eta", g)))
        rhs = seq(par(_role("q", g), identity([A])), _role("eps", g))
        return lhs, rhs

    def eq_pq(g):
        return (seq(_role("p", g), dagger(_role("q", g))),
                identity([g.object("A")]))

    # The snakes of `dual`, written out as there.
    return EquationSuite("dagger-dual", "dagger_dual",
                        ("eta", "eps", "p", "q"),
                        _snakes(_SNAKE_LABELS, "eta", "eps") + (
                            Equation("dagger-cup", eq_a),
                            Equation("dagger-cap", eq_b),
                            Equation("section-pair", eq_pq),
                        ))


def _dagger_of_dual_suite() -> EquationSuite:
    # The dagger of a dual A -| B is the dual B -| A with cup the daggered
    # cap and cap the daggered cup; each of its snakes is the other daggered.
    return EquationSuite("dagger-of-dual", "dual", ("eta", "eps"),
                         _flipped(_dual_suite().equations, dagger,
                                  dict(zip(_SNAKE_LABELS,
                                           _SNAKE_LABELS[::-1]))))


def _pair(label: str, role: str, other: str) -> Equation:
    """`role` equals the dagger of `other`."""
    return Equation(label, lambda g: (_role(role, g),
                                      dagger(_role(other, g))))


def _hermitian(label: str, role: str, dom: str, cod: str) -> Equation:
    """`role`, from `dom` to `cod` (or to `dom` when the gadget has no
    `cod`), equals its own dagger."""
    def build(g):
        X = g.object(dom)
        c = generator(role, [X], [g.objects.get(cod, X)])
        return c, dagger(c)
    return Equation(label, build)


def _binary_idempotent_suite() -> EquationSuite:
    def zigzag(g, roles: str):
        A, B = g.object("A"), g.object("B")
        maps = {"u": generator("u", [A], [B]), "v": generator("v", [B], [A])}
        x, y = (maps[r] for r in roles)
        return seq(x, y, x), x

    return EquationSuite("binary-idempotent", "binary_idempotent",
                        ("u", "v"), (
                            Equation("uvu", lambda g: zigzag(g, "uv")),
                            Equation("vuv", lambda g: zigzag(g, "vu")),
                        ))


def _dagger_binary_suite() -> EquationSuite:
    base = _binary_idempotent_suite()
    return EquationSuite("dagger-binary", "binary_idempotent",
                        ("u", "v"),
                        base.equations + (
                            _hermitian("u-hermitian", "u", "A", "B"),
                            _hermitian("v-hermitian", "v", "B", "A"),
                        ))


def _linear_monoid_equations() -> tuple[Equation, ...]:
    def d_coincide(g):
        return _d_left(g), _d_right(g)

    def k_coincide(g):
        return _k_left(g), _k_right(g)

    return (_monoid_laws()
            + _snake_pairs("snake-{}-dual-{}", "ab", "eta_L", "eps_L")
            + (Equation("comult-coincide", d_coincide),
               Equation("counit-coincide", k_coincide)))


_LINEAR_MONOID_ROLES = ("m", "u", "eta_L", "eps_L", "eta_R", "eps_R")


def _linear_monoid_suite() -> EquationSuite:
    return EquationSuite("linear-monoid", "linear_monoid",
                        _LINEAR_MONOID_ROLES, _linear_monoid_equations())


def _monoid_actions_suite() -> EquationSuite:
    def unit_l(g):
        B = g.object("B")
        return (seq(par(_role("u", g), identity([B])), _role("act_l", g)),
                identity([B]))

    def assoc_l(g):
        # act_l evaluates its argument against multiplication on the other
        # side, so iterating the action consumes the algebra arguments in
        # their given order (inserting a swap here would only be correct
        # for commutative algebras).
        A, B, act = g.object("A"), g.object("B"), _role("act_l", g)
        return (seq(par(_role("m", g), identity([B])), act),
                seq(par(identity([A]), act), act))

    def commute(g):
        A, act_l, act_r = g.object("A"), _role("act_l", g), _role("act_r", g)
        return (seq(par(act_l, identity([A])), act_r),
                seq(par(identity([A]), act_r), act_l))

    def counit_l(g):
        A = g.object("A")
        return (seq(_role("coact_l", g),
                    par(_role("k_b", g), identity([A]))), identity([A]))

    def coassoc_l(g):
        A, B, coact = g.object("A"), g.object("B"), _role("coact_l", g)
        return (seq(coact, par(_role("d_b", g), identity([A]))),
                seq(coact, par(identity([B]), coact)))

    def cocommute(g):
        B = g.object("B")
        coact_l, coact_r = _role("coact_l", g), _role("coact_r", g)
        return (seq(coact_l, par(identity([B]), coact_r)),
                seq(coact_r, par(coact_l, identity([B]))))

    A_roles = ("m", "u", "d_b", "k_b", "act_l", "act_r",
               "coact_l", "coact_r")

    return EquationSuite("monoid-actions", "monoid_actions", A_roles,
                         _monoid_laws("A", "monoid-")
                         + _comonoid_laws("B", "d_b", "k_b", "comonoid-")
                         + _left_right("action-unit", unit_l)
                         + _left_right("action-assoc", assoc_l)
                         + (Equation("actions-commute", commute),)
                         + _left_right("coaction-counit", counit_l)
                         + _left_right("coaction-coassoc", coassoc_l)
                         + (Equation("coactions-commute", cocommute),))


def _monoid_absorption(flavour: str) -> EquationSuite:
    return EquationSuite(f"monoid-{flavour}", "monoid_idempotent",
                         ("m", "u", "e"),
                         _absorptions({"mult-absorption": "m",
                                       "unit-absorption": "u"},
                                      {"A": ("e",)}, _FLAVOURS[flavour])
                         + (_idem("e"),))


# Each side of a linear bialgebra with the unit and counit of its two
# duals: first the dual whose absorption is named after the side's flavour.
_SIDE_DUALS = {"monoid": (("eta_L", "eps_L"), ("eta_R", "eps_R")),
               "comonoid": (("tau_R", "gam_R"), ("tau_L", "gam_L"))}


def _flavour_checks(side: str, flavour: str) -> list[EquationSuite]:
    """The suites in which idempotents e = e_a on A and e_b on B are
    `flavour` on the `side` of a linear bialgebra: the side's suite from
    `SUITES`, then its duals' absorptions.  Reversing arrows exchanges
    sections and retractions: the comonoid's duals take the other legs."""
    legs = _FLAVOURS[flavour]
    if side == "comonoid":
        legs = _EVERY_LEG - legs
    return [SUITES[f"{side}-{flavour}"],
            *(_dual_absorption(cup, cap, legs)
              for cup, cap in _SIDE_DUALS[side])]


def _is_dagger(label: str, derived: Callable[[Gadget], Circuit],
               role: str) -> Equation:
    """The map `derived` on the dual object B equals the dagger of `role`,
    with every object of its signature read as B."""
    return Equation(label, lambda g: (derived(g),
                                      dagger(_role(role, g, "B"))))


def _dagger_linear_monoid_suite() -> EquationSuite:
    # The gadget must place A and B on the same object, since the dagger is
    # the identity on objects in this model.  With the canonical
    # section/retraction pair taken to be identities, the dagger-dual
    # equations reduce to the daggered cap equalling the cup entry for entry.
    def dag_dual(g):
        return dagger(_role("eps_L", g)), _role("eta_L", g)

    return EquationSuite("dagger-linear-monoid", "linear_monoid",
                        _LINEAR_MONOID_ROLES,
                        _linear_monoid_equations()
                        + _left_right("dagger-dual", dag_dual) + (
                            _is_dagger("comult-is-mult-dagger", _d_left, "m"),
                            _is_dagger("counit-is-unit-dagger", _k_left, "u"),
                        ))


def _dagger_linear_comonoid_suite() -> EquationSuite:
    # The flip of the monoid suite, except for the comparisons of the
    # derived (co)monoid with the dagger, which are not flips of their
    # monoid-side counterparts.
    return _flipped_suite(_dagger_linear_monoid_suite(),
                          "dagger-linear-comonoid", "linear_comonoid", (
                              _is_dagger("mult-is-comult-dagger", _m_left,
                                         "d"),
                              _is_dagger("unit-is-counit-dagger", _u_left,
                                         "k"),
                          ))


def _frobenius_equations() -> tuple[Equation, ...]:
    def unitary_l(g):
        A, B, alpha = g.object("A"), g.object("B"), _role("alpha", g)
        return alpha, seq(par(identity([A]), _role("eta_L", g)),
                          par(_role("m", g), identity([B])),
                          par(alpha, identity([B])),
                          par(_k_left(g), identity([B])))

    def action_l(g):
        A, B, m = g.object("A"), g.object("B"), _role("m", g)
        return m, seq(par(_role("alpha", g), identity([A]),
                          _role("eta_L", g)),
                      par(identity([B]), m, identity([B])),
                      par(_role("eps_L", g), identity([B])),
                      _role("alpha_inv", g))

    def cup_l(g):
        A, alpha = g.object("A"), _role("alpha", g)
        return (seq(_role("m", g), alpha, _k_left(g)),
                seq(par(alpha, identity([A])), _role("eps_L", g)))

    # Written out, not mirrored: its lhs reads _k_left, which the mirror of
    # cup_l would turn into _k_right, another map.
    def cup_r(g):
        A, alpha = g.object("A"), _role("alpha", g)
        return (seq(_role("m", g), alpha, _k_left(g)),
                seq(par(identity([A]), alpha), _role("eps_R", g)))

    return (_left_right("unitary-coincidence", unitary_l)
            + _left_right("action-coincidence", action_l)
            + (Equation("cup-coincidence-left", cup_l),
               Equation("cup-coincidence-right", cup_r)))


def _frobenius_coincidence_suite() -> EquationSuite:
    return EquationSuite("frobenius-coincidence", "frobenius",
                        _LINEAR_MONOID_ROLES + ("alpha",),
                        _frobenius_equations())


def _frobenius_algebra_suite() -> EquationSuite:
    def frob(g):
        A, m, d = g.object("A"), _role("m", g), _role("d", g)
        return seq(par(d, identity([A])), par(identity([A]), m)), seq(m, d)

    return EquationSuite("frobenius-algebra", "frobenius_algebra",
                        ("m", "u", "d", "k"),
                        _monoid_laws() + _comonoid_laws()
                        + _left_right("frobenius", frob))


def _dagger_frobenius_suite() -> EquationSuite:
    def unitary_a(g):
        alpha = _role("alpha", g)
        return seq(alpha, dagger(alpha)), identity([g.object("A")])

    def unitary_b(g):
        alpha = _role("alpha", g)
        return seq(dagger(alpha), alpha), identity([g.object("B")])

    return EquationSuite("dagger-frobenius", "frobenius",
                        _LINEAR_MONOID_ROLES + ("alpha",),
                        _frobenius_equations() + (
                            Equation("structure-map-unitary-a", unitary_a),
                            Equation("structure-map-unitary-b", unitary_b),
                        ))


def _frobenius_splitting_suite() -> EquationSuite:
    def cond(g):
        A, B, ub = g.object("A"), g.object("B"), _role("ub", g)
        return ub, seq(par(identity([A]), _role("eta_L", g)),
                       par(*(_composite(_UB_VB[o], g) for o in "AAB")),
                       par(_role("m", g), identity([B])),
                       par(seq(ub, _k_left(g)), identity([B])))

    return EquationSuite("frobenius-splitting-cond", "monoid_idempotent",
                        _LINEAR_MONOID_ROLES + ("ub", "vb"),
                        _left_right("splitting", cond))


_LINEAR_BIALGEBRA_ROLES = ("m", "u", "d", "k",
                           "eta_L", "eps_L", "eta_R", "eps_R",
                           "tau_L", "gam_L", "tau_R", "gam_R")


def _bialgebra_laws(obj: str, prefix: str) -> tuple[Equation, ...]:
    """The bialgebra laws of m, u, d and k on the object `obj`."""
    def mult_comult(g):
        m, d = _role("m", g, obj), _role("d", g, obj)
        return seq(m, d), seq(par(d, d),
                              permutation(4 * [g.object(obj)], [0, 2, 1, 3]),
                              par(m, m))

    def mult_counit(g):
        k = _role("k", g, obj)
        return seq(_role("m", g, obj), k), par(k, k)

    def unit_comult(g):
        u = _role("u", g, obj)
        return seq(u, _role("d", g, obj)), par(u, u)

    def unit_counit(g):
        return seq(_role("u", g, obj), _role("k", g, obj)), empty()

    return (
        Equation(f"{prefix}mult-comult", mult_comult),
        Equation(f"{prefix}mult-counit", mult_counit),
        Equation(f"{prefix}unit-comult", unit_comult),
        Equation(f"{prefix}unit-counit", unit_counit),
    )


# The bialgebra structure derived on the dual object B, by the role it
# stands in for: the par-side laws are the tensor-side ones written on B
# with these substituted.
_ON_DUAL = {"m": _m_left, "d": _d_left, "k": _k_left, "u": _u_left}


def _linear_bialgebra_suite() -> EquationSuite:
    snakes = (_snake_pairs("snake-monoid-{}-{}", "xy", "eta_L", "eps_L")
              + _snake_pairs("snake-comonoid-{}-{}", "xy", "tau_L", "gam_L"))
    return EquationSuite("linear-bialgebra", "linear_bialgebra",
                        _LINEAR_BIALGEBRA_ROLES,
                        _monoid_laws() + _comonoid_laws() + snakes
                        + _bialgebra_laws("A", "tensor-")
                        + _substituted(_bialgebra_laws("B", "par-"),
                                       _ON_DUAL))


def _complementary_suite() -> EquationSuite:
    def comp1(g):
        A, B = g.object("A"), g.object("B")
        return (seq(par(identity([A]), _u_left(g)),
                    permutation([A, B], [1, 0]), _role("eps_L", g)),
                _role("k", g))

    def comp2(g):
        return (seq(_role("tau_L", g),
                    par(identity([g.object("A")]), _k_left(g))),
                _role("u", g))

    def comp3(g):
        u = _u_left(g)
        return seq(u, _d_left(g)), par(u, u)

    return EquationSuite("complementary", "linear_bialgebra",
                        _LINEAR_BIALGEBRA_ROLES,
                        _left_right("comp.1", comp1)
                        + _left_right("comp.2", comp2)
                        + _left_right("comp.3", comp3))


def _hopf_suite() -> EquationSuite:
    # The Hopf laws of m, u, d and k on an object, with the antipode a
    # generator s.  The right law is written out, not mirrored: both laws
    # take the one antipode, while the mirror of an antipode is another map.
    def hopf(obj: str, side: str) -> Template:
        def build(g):
            X, s = g.object(obj), _role("s", g, obj)
            first = par(s, identity([X])) if side == "left" \
                else par(identity([X]), s)
            return (seq(_role("d", g, obj), first, _role("m", g, obj)),
                    seq(_role("k", g, obj), _role("u", g, obj)))
        return build

    def laws(obj: str, prefix: str) -> tuple[Equation, ...]:
        return tuple(Equation(f"{prefix}-{side}", hopf(obj, side))
                     for side in ("left", "right"))

    return EquationSuite(
        "hopf", "linear_bialgebra", _LINEAR_BIALGEBRA_ROLES,
        _substituted(laws("A", "hopf-tensor"), {"s": _antipode_tensor})
        + _substituted(laws("B", "hopf-par"),
                       _ON_DUAL | {"s": _antipode_par}))


# Every role's image under the (would-be) splitting of e_A = ub;vb and
# e_B = vb;ub, expressed on the ambient object, by role.
_SANDWICHED = {role: _absorbed(role, _UB_VB, _EVERY_LEG)
               for role in _ROLE_SIGNATURES}


def _complementary_idempotent_suite() -> EquationSuite:
    # The complementarity conditions for a binary idempotent on a linear
    # bialgebra: the complementary-system equations with every structure
    # map replaced by its idempotent-sandwiched image.  Because the
    # retraction/section composites collapse between consecutive maps,
    # checking these on the ambient gadget is equivalent to splitting the
    # idempotent and checking the complementary suite on the quotient.
    labels = [f"idemcomp.{c}-{side}" for c in "abc"
              for side in ("left", "right")]
    conditions = _substituted(_complementary_suite().equations, _SANDWICHED)
    return EquationSuite("complementary-idempotent-cond",
                        "linear_bialgebra_idempotent",
                        _LINEAR_BIALGEBRA_ROLES + ("ub", "vb"),
                        tuple(Equation(label, eq.build)
                              for label, eq in zip(labels, conditions)))


def _preunitary_suite() -> EquationSuite:
    return EquationSuite("preunitary", "preunitary", ("phi",), (
        _hermitian("structure-map-hermitian", "phi", "A", "B"),
    ))


def _dagger_bang_coherence_suite() -> EquationSuite:
    def codereliction(g):   # eta and eps, typed here (see `_role`)
        X, Y = g.object("X"), g.object("Y")
        return generator("eta", [Y], [X]), dagger(generator("eps", [X], [Y]))

    return EquationSuite("dagger-bang-coherence", "exp_coherence",
                        ("Delta", "counit", "eps", "delta",
                         "nabla", "unit", "eta", "mu"), (
                            _pair("mult-is-comult-dagger", "nabla", "Delta"),
                            _pair("unit-is-counit-dagger", "unit", "counit"),
                            Equation("codereliction-is-dereliction-dagger",
                                     codereliction),
                            _pair("comult-is-mult-dagger", "mu", "delta"),
                        ))


def _build_registry() -> dict[str, EquationSuite]:
    suites = [
        _dual_suite(),
        _dual_morphism_suite(),
        _dual_absorption("eta", "eps", _SECTIONAL),
        _dual_absorption("eta", "eps", _RETRACTIONAL),
        _tensor_of_duals_suite(),
        _dagger_dual_suite(),
        _dagger_of_dual_suite(),
        _binary_idempotent_suite(),
        _dagger_binary_suite(),
        _linear_monoid_suite(),
        _monoid_actions_suite(),
        _monoid_absorption("sectional"),
        _monoid_absorption("retractional"),
        _dagger_linear_monoid_suite(),
        _frobenius_coincidence_suite(),
        _frobenius_algebra_suite(),
        _dagger_frobenius_suite(),
        _frobenius_splitting_suite(),
        _flipped_suite(_linear_monoid_suite(), "linear-comonoid",
                       "linear_comonoid"),
        # Reversing arrows exchanges sections and retractions.
        _flipped_suite(_monoid_absorption("retractional"),
                       "comonoid-sectional", "comonoid_idempotent"),
        _flipped_suite(_monoid_absorption("sectional"),
                       "comonoid-retractional", "comonoid_idempotent"),
        _dagger_linear_comonoid_suite(),
        _linear_bialgebra_suite(),
        _complementary_suite(),
        _hopf_suite(),
        _complementary_idempotent_suite(),
        _preunitary_suite(),
        _dagger_bang_coherence_suite(),
    ]
    return {s.name: s for s in suites}


SUITES: dict[str, EquationSuite] = _build_registry()
