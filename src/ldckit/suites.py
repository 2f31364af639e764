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
still written twice say why where they are built.

Graded gadgets (those with a ``gradings`` map from object roles to per-basis
degree vectors) are compared only on boundary entries whose total degree is
within the truncation window; an equation's ``margin`` shrinks that window
further for composites whose intermediate degrees exceed their boundary
degrees.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Optional, Sequence

import numpy as np

from .circuit import (Circuit, dagger, empty, generator, identity, mirror,
                      par, permutation, reverse, seq, substitute)
from .errors import MissingRole, SuiteFailure
from .gadget import Gadget
from .model import ModelEnv, evaluate, interp, matrices_equal
from .objects import Bot, Dagger, ObjectExpr, Par, Tensor, Top

Template = Callable[[Gadget], tuple[Circuit, Circuit]]


@dataclass(frozen=True)
class Equation:
    label: str
    build: Template
    margin: int = 0


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
    in `reads` when it is given."""
    env = ModelEnv(atoms=dict(g.env.atoms), degree=g.env.degree)
    for role, mat in g.morphisms.items():
        m = np.asarray(mat, dtype=complex)
        env.assign(role, m)
        for suffix, derive in _DERIVED.items():
            if reads is None or role + suffix in reads:
                try:
                    env.assign(role + suffix, derive(m))
                except np.linalg.LinAlgError:   # not square, or singular
                    pass
    return env


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


# Each equation's two sides by equation and object typing, oldest out
# first: a template reads nothing of a gadget but its objects, and its
# circuits keep their compiled contractions (`model.evaluate`).
_TEMPLATES: dict = {}
_TEMPLATES_KEPT = 1024


def _sides(eq: Equation, g: Gadget) -> tuple[Circuit, Circuit]:
    key = (eq, frozenset(g.objects.items()))
    sides = _TEMPLATES.get(key)
    if sides is None:
        if len(_TEMPLATES) >= _TEMPLATES_KEPT:
            del _TEMPLATES[next(iter(_TEMPLATES))]
        sides = _TEMPLATES[key] = eq.build(g)
    return sides


def check_suite(g: Gadget, suite: EquationSuite,
                tol: float = 1e-9) -> SuiteReport:
    for role in suite.roles:
        if role not in g.morphisms:
            raise MissingRole(role)
    sides = [_sides(eq, g) for eq in suite.equations]
    env = suite_env(g, frozenset().union(
        *(c.generator_names for pair in sides for c in pair)))
    gradings = getattr(g, "gradings", None)
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
            limit = env.degree - eq.margin
            rows = _boundary_degrees(lhs_c.output_types(), env, table)
            cols = _boundary_degrees(lhs_c.input_types(), env, table)
            mask = (rows[:, None] <= limit) & (cols[None, :] <= limit)
            lhs = np.where(mask, lhs, 0)
            rhs = np.where(mask, rhs, 0)
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

def _cup(role: str, left: ObjectExpr, right: ObjectExpr) -> Circuit:
    return generator(role, [], [left, right])


def _cap(role: str, left: ObjectExpr, right: ObjectExpr) -> Circuit:
    return generator(role, [left, right], [])


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
        def b(g):
            X, Y = [g.object("A")], [g.object("B")]
            return snake(X, Y, _cup(cup, *X, *Y), _cap(cap, *Y, *X))
        return b
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
                 table: Callable[[Gadget], Mapping[str, Circuit]]
                 ) -> tuple[Equation, ...]:
    """`equations` with each generator named in `table(g)` replaced by its
    circuit (`circuit.substitute`)."""
    def substituted(eq: Equation) -> Template:
        def build(g):
            subs = table(g)
            return tuple(substitute(c, subs) for c in eq.build(g))
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
        A = g.object(obj)
        m = generator("m", [A, A], [A])
        return (seq(par(generator("m", [A, A], [A]), identity([A])), m),
                seq(par(identity([A]), generator("m", [A, A], [A])), m))

    def unit_l(g):
        A = g.object(obj)
        return (seq(par(generator("u", [], [A]), identity([A])),
                    generator("m", [A, A], [A])), identity([A]))

    return (Equation(f"{prefix}assoc", assoc),
            *_left_right(f"{prefix}unit", unit_l))


def _comonoid_laws(obj: str = "A", d: str = "d", k: str = "k",
                   prefix: str = "") -> tuple[Equation, ...]:
    return tuple(Equation(prefix + eq.label, eq.build)
                 for eq in _flipped(_monoid_laws(obj),
                                    _reversal({"m": d, "u": k})))


# Derived structure on the dual object of a linear monoid (m, u) with left
# duals (eta_L, eps_L): A -| B and right duals (eta_R, eps_R): B -| A.  Each
# right-hand map is the mirror image of its left-hand twin.

def _d_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([B]), _cup("eta_L", A, B), _cup("eta_L", A, B)),
               permutation([B, A, B, A, B], [1, 3, 0, 4, 2]),
               par(generator("m", [A, A], [A]), identity([B, B, B])),
               permutation([A, B, B, B], [1, 0, 2, 3]),
               par(_cap("eps_L", B, A), identity([B, B])))


def _d_right(g: Gadget) -> Circuit:
    return _mirror(_d_left(g))


def _k_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([B]), generator("u", [], [A])),
               _cap("eps_L", B, A))


def _k_right(g: Gadget) -> Circuit:
    return _mirror(_k_left(g))


# Derived structure on the dual object of a linear comonoid (d, k) with
# duals (tau_L, gam_L): A -| B and (tau_R, gam_R): B -| A: the comonoid flip
# of the monoid's right-hand maps, and their mirror images.

def _m_left(g: Gadget) -> Circuit:
    return _to_comonoid(_d_right(g))


def _u_left(g: Gadget) -> Circuit:
    return _to_comonoid(_k_right(g))


def _u_right(g: Gadget) -> Circuit:
    return _mirror(_u_left(g))


# Actions and coactions derived from a linear monoid.

def _act_left(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([A, B]), _cup("eta_L", A, B)),
               permutation([A, B, A, B], [2, 0, 1, 3]),
               par(generator("m", [A, A], [A]), identity([B, B])),
               permutation([A, B, B], [1, 0, 2]),
               par(_cap("eps_L", B, A), identity([B])))


def _act_right(g: Gadget) -> Circuit:
    return _mirror(_act_left(g))


def _coact_right(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(identity([A]), _cup("eta_L", A, B)),
               par(generator("m", [A, A], [A]), identity([B])))


def _coact_left(g: Gadget) -> Circuit:
    return _mirror(_coact_right(g))


# Antipodes of a complementary system.

def _antipode_tensor(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(_cup("tau_L", A, B), identity([A])),
               par(identity([A]), generator("m", [A, A], [A])),
               par(identity([A]), _k_left(g)))


def _antipode_par(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(par(_u_left(g), identity([B])),
               par(generator("d", [A], [A, A]), identity([B])),
               par(identity([A]), _cap("gam_R", A, B)))


def _e_a(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(generator("ub", [A], [B]), generator("vb", [B], [A]))


def _e_b(g: Gadget) -> Circuit:
    A, B = g.object("A"), g.object("B")
    return seq(generator("vb", [B], [A]), generator("ub", [A], [B]))


# -- suite definitions ------------------------------------------------------

_SNAKE_LABELS = ("snake-left", "snake-right")


def _dual_suite() -> EquationSuite:
    # Both snakes are written out: the mirror of the cup eta: () -> A, B is
    # a cup () -> B, A of the same name, ill-typed when A != B.
    return EquationSuite("dual", "dual", ("eta", "eps"),
                         _snakes(_SNAKE_LABELS, "eta", "eps"))


def _dual_morphism_suite() -> EquationSuite:
    def eq_a(g):
        A2, B = g.object("A2"), g.object("B")
        A, B2 = g.object("A"), g.object("B2")
        lhs = seq(_cup("eta2", A2, B2), par(identity([A2]),
                                            generator("g", [B2], [B])))
        rhs = seq(_cup("eta", A, B), par(generator("f", [A], [A2]),
                                         identity([B])))
        return lhs, rhs

    def eq_b(g):
        A, B, A2, B2 = (g.object("A"), g.object("B"),
                        g.object("A2"), g.object("B2"))
        lhs = seq(par(identity([B2]), generator("f", [A], [A2])),
                  _cap("eps2", B2, A2))
        rhs = seq(par(generator("g", [B2], [B]), identity([A])),
                  _cap("eps", B, A))
        return lhs, rhs

    return EquationSuite("dual-morphism", "dual_morphism",
                        ("eta", "eps", "eta2", "eps2", "f", "g"), (
                            Equation("cup-morphism", eq_a),
                            Equation("cap-morphism", eq_b),
                        ))


def _idem(role: str, obj: str) -> Equation:
    def build(g):
        X = g.object(obj)
        e = generator(role, [X], [X])
        return seq(e, e), e
    return Equation(f"{role}-idempotent", build)


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
                            _idem("e_a", "A"),
                            _idem("e_b", "B"),
                        ))


def tensor_of_duals_cup(g: Gadget) -> Circuit:
    """Composite cup for (A (x) C) -| (D (+) B) from A -| B and C -| D."""
    A, B, C, D = (g.object("A"), g.object("B"),
                  g.object("C"), g.object("D"))
    return seq(par(_cup("eta", A, B), _cup("eta2", C, D)),
               permutation([A, B, C, D], [0, 2, 3, 1]))


def tensor_of_duals_cap(g: Gadget) -> Circuit:
    A, B, C, D = (g.object("A"), g.object("B"),
                  g.object("C"), g.object("D"))
    return seq(permutation([D, B, A, C], [0, 3, 1, 2]),
               par(_cap("eps2", D, C), _cap("eps", B, A)))


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
        A, B = g.object("A"), g.object("B")
        lhs = seq(dagger(_cap("eps", B, A)), par(identity([B]),
                                                 generator("q", [A], [B])))
        rhs = seq(_cup("eta", A, B), par(generator("p", [A], [B]),
                                         identity([B])))
        return lhs, rhs

    def eq_b(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(par(identity([A]), generator("p", [A], [B])),
                  dagger(_cup("eta", A, B)))
        rhs = seq(par(generator("q", [A], [B]), identity([A])),
                  _cap("eps", B, A))
        return lhs, rhs

    def eq_pq(g):
        A, B = g.object("A"), g.object("B")
        return (seq(generator("p", [A], [B]),
                    dagger(generator("q", [A], [B]))),
                identity([A]))

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


def _pair(label: str, role: str, other: str, dom: Sequence[str],
          cod: Sequence[str]) -> Equation:
    """`role`, from `dom` to `cod`, equals the dagger of `other`."""
    def build(g):
        ts_dom = [g.object(o) for o in dom]
        ts_cod = [g.object(o) for o in cod]
        return (generator(role, ts_dom, ts_cod),
                dagger(generator(other, ts_cod, ts_dom)))
    return Equation(label, build)


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
        A, B = g.object("A"), g.object("B")
        return (seq(par(generator("u", [], [A]), identity([B])),
                    generator("act_l", [A, B], [B])), identity([B]))

    def assoc_l(g):
        # act_l evaluates its argument against multiplication on the other
        # side, so iterating the action consumes the algebra arguments in
        # their given order (inserting a swap here would only be correct
        # for commutative algebras).
        A, B = g.object("A"), g.object("B")
        lhs = seq(par(generator("m", [A, A], [A]), identity([B])),
                  generator("act_l", [A, B], [B]))
        rhs = seq(par(identity([A]), generator("act_l", [A, B], [B])),
                  generator("act_l", [A, B], [B]))
        return lhs, rhs

    def commute(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(par(generator("act_l", [A, B], [B]), identity([A])),
                  generator("act_r", [B, A], [B]))
        rhs = seq(par(identity([A]), generator("act_r", [B, A], [B])),
                  generator("act_l", [A, B], [B]))
        return lhs, rhs

    def counit_l(g):
        A, B = g.object("A"), g.object("B")
        return (seq(generator("coact_l", [A], [B, A]),
                    par(generator("k_b", [B], []), identity([A]))),
                identity([A]))

    def coassoc_l(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(generator("coact_l", [A], [B, A]),
                  par(generator("d_b", [B], [B, B]), identity([A])))
        rhs = seq(generator("coact_l", [A], [B, A]),
                  par(identity([B]), generator("coact_l", [A], [B, A])))
        return lhs, rhs

    def cocommute(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(generator("coact_l", [A], [B, A]),
                  par(identity([B]), generator("coact_r", [A], [A, B])))
        rhs = seq(generator("coact_r", [A], [A, B]),
                  par(generator("coact_l", [A], [B, A]), identity([B])))
        return lhs, rhs

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
                         eqs + (_idem("e", "A"),))


def _is_dagger(label: str, derived: Callable[[Gadget], Circuit],
               role: str) -> Equation:
    """The map `derived` on the dual object B equals the dagger of `role`,
    with every object of its signature read as B."""
    def build(g):
        dom, cod = (len(objs) * [g.object("B")]
                    for objs in _ROLE_SIGNATURES[role])
        return derived(g), dagger(generator(role, dom, cod))
    return Equation(label, build)


def _dagger_linear_monoid_suite() -> EquationSuite:
    # The gadget must place A and B on the same object, since the dagger is
    # the identity on objects in this model.  With the canonical
    # section/retraction pair taken to be identities, the dagger-dual
    # equations reduce to the daggered cap equalling the cup entry for entry.
    def dag_dual(g):
        A, B = g.object("A"), g.object("B")
        return dagger(_cap("eps_L", B, A)), _cup("eta_L", A, B)

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
        A, B = g.object("A"), g.object("B")
        return generator("alpha", [A], [B]), seq(
            par(identity([A]), _cup("eta_L", A, B)),
            par(generator("m", [A, A], [A]), identity([B])),
            par(generator("alpha", [A], [B]), identity([B])),
            par(_k_left(g), identity([B])))

    def action_l(g):
        A, B = g.object("A"), g.object("B")
        rhs = seq(par(generator("alpha", [A], [B]), identity([A]),
                      _cup("eta_L", A, B)),
                  par(identity([B]), generator("m", [A, A], [A]),
                      identity([B])),
                  par(_cap("eps_L", B, A), identity([B])),
                  generator("alpha_inv", [B], [A]))
        return generator("m", [A, A], [A]), rhs

    def cup_l(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(generator("m", [A, A], [A]),
                  generator("alpha", [A], [B]), _k_left(g))
        rhs = seq(par(generator("alpha", [A], [B]), identity([A])),
                  _cap("eps_L", B, A))
        return lhs, rhs

    # Written out, not mirrored: its lhs reads _k_left, which the mirror of
    # cup_l would turn into _k_right, another map.
    def cup_r(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(generator("m", [A, A], [A]),
                  generator("alpha", [A], [B]), _k_left(g))
        rhs = seq(par(identity([A]), generator("alpha", [A], [B])),
                  _cap("eps_R", A, B))
        return lhs, rhs

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
        A = g.object("A")
        lhs = seq(par(generator("d", [A], [A, A]), identity([A])),
                  par(identity([A]), generator("m", [A, A], [A])))
        return lhs, seq(generator("m", [A, A], [A]),
                        generator("d", [A], [A, A]))

    return EquationSuite("frobenius-algebra", "frobenius_algebra",
                        ("m", "u", "d", "k"),
                        _monoid_laws() + _comonoid_laws()
                        + _left_right("frobenius", frob))


def _dagger_frobenius_suite() -> EquationSuite:
    def unitary_a(g):
        alpha = generator("alpha", [g.object("A")], [g.object("B")])
        return seq(alpha, dagger(alpha)), identity([g.object("A")])

    def unitary_b(g):
        alpha = generator("alpha", [g.object("A")], [g.object("B")])
        return seq(dagger(alpha), alpha), identity([g.object("B")])

    return EquationSuite("dagger-frobenius", "frobenius",
                        _LINEAR_MONOID_ROLES + ("alpha",),
                        _frobenius_equations() + (
                            Equation("structure-map-unitary-a", unitary_a),
                            Equation("structure-map-unitary-b", unitary_b),
                        ))


def _frobenius_splitting_suite() -> EquationSuite:
    def cond(g):
        A, B = g.object("A"), g.object("B")
        pre = seq(par(identity([A]), _cup("eta_L", A, B)),
                  par(_e_a(g), _e_a(g), _e_b(g)),
                  par(generator("m", [A, A], [A]), identity([B])),
                  par(seq(generator("ub", [A], [B]), _k_left(g)),
                      identity([B])))
        return generator("ub", [A], [B]), pre

    return EquationSuite("frobenius-splitting-cond", "monoid_idempotent",
                        _LINEAR_MONOID_ROLES + ("ub", "vb"),
                        _left_right("splitting", cond))


_LINEAR_BIALGEBRA_ROLES = ("m", "u", "d", "k",
                           "eta_L", "eps_L", "eta_R", "eps_R",
                           "tau_L", "gam_L", "tau_R", "gam_R")


def _bialgebra_laws(obj: str, prefix: str) -> tuple[Equation, ...]:
    """The bialgebra laws of m, u, d and k on the object `obj`."""
    def mult_comult(g):
        A = g.object(obj)
        lhs = seq(generator("m", [A, A], [A]), generator("d", [A], [A, A]))
        rhs = seq(par(generator("d", [A], [A, A]),
                      generator("d", [A], [A, A])),
                  permutation([A, A, A, A], [0, 2, 1, 3]),
                  par(generator("m", [A, A], [A]),
                      generator("m", [A, A], [A])))
        return lhs, rhs

    def mult_counit(g):
        A = g.object(obj)
        return (seq(generator("m", [A, A], [A]), generator("k", [A], [])),
                par(generator("k", [A], []), generator("k", [A], [])))

    def unit_comult(g):
        A = g.object(obj)
        return (seq(generator("u", [], [A]), generator("d", [A], [A, A])),
                par(generator("u", [], [A]), generator("u", [], [A])))

    def unit_counit(g):
        A = g.object(obj)
        return (seq(generator("u", [], [A]), generator("k", [A], [])),
                empty())

    return (
        Equation(f"{prefix}mult-comult", mult_comult),
        Equation(f"{prefix}mult-counit", mult_counit),
        Equation(f"{prefix}unit-comult", unit_comult),
        Equation(f"{prefix}unit-counit", unit_counit),
    )


def _on_dual(g: Gadget) -> dict[str, Circuit]:
    """The bialgebra structure derived on the dual object B, by the role it
    stands in for: the par-side laws are the tensor-side ones written on B
    with these substituted."""
    return {"m": _m_left(g), "d": _d_left(g), "k": _k_left(g),
            "u": _u_left(g)}


def _linear_bialgebra_suite() -> EquationSuite:
    snakes = (_snake_pairs("snake-monoid-{}-{}", "xy", "eta_L", "eps_L")
              + _snake_pairs("snake-comonoid-{}-{}", "xy", "tau_L", "gam_L"))
    return EquationSuite("linear-bialgebra", "linear_bialgebra",
                        _LINEAR_BIALGEBRA_ROLES,
                        _monoid_laws() + _comonoid_laws() + snakes
                        + _bialgebra_laws("A", "tensor-")
                        + _substituted(_bialgebra_laws("B", "par-"),
                                       _on_dual))


def _complementary_suite() -> EquationSuite:
    def comp1(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(par(identity([A]), _u_left(g)),
                  permutation([A, B], [1, 0]),
                  _cap("eps_L", B, A))
        return lhs, generator("k", [A], [])

    def comp2(g):
        A, B = g.object("A"), g.object("B")
        lhs = seq(_cup("tau_L", A, B), par(identity([A]), _k_left(g)))
        return lhs, generator("u", [], [A])

    def comp3(g):
        return seq(_u_left(g), _d_left(g)), par(_u_left(g), _u_left(g))

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
            X = g.object(obj)
            s = generator("s", [X], [X])
            first = par(s, identity([X])) if side == "left" \
                else par(identity([X]), s)
            lhs = seq(generator("d", [X], [X, X]), first,
                      generator("m", [X, X], [X]))
            rhs = seq(generator("k", [X], []), generator("u", [], [X]))
            return lhs, rhs
        return build

    def laws(obj: str, prefix: str) -> tuple[Equation, ...]:
        return tuple(Equation(f"{prefix}-{side}", hopf(obj, side))
                     for side in ("left", "right"))

    return EquationSuite(
        "hopf", "linear_bialgebra", _LINEAR_BIALGEBRA_ROLES,
        _substituted(laws("A", "hopf-tensor"),
                     lambda g: {"s": _antipode_tensor(g)})
        + _substituted(laws("B", "hopf-par"),
                       lambda g: _on_dual(g) | {"s": _antipode_par(g)}))


def _sandwiched(g: Gadget) -> dict[str, Circuit]:
    """Each structure map conjugated by the idempotent pair e_A = ub;vb,
    e_B = vb;ub: the image of the role under the (would-be) splitting,
    expressed on the ambient object."""
    e = {"A": _e_a(g), "B": _e_b(g)}

    def on(objs: tuple[str, ...]) -> Circuit:
        return par(empty(), *(e[o] for o in objs))

    return {role: seq(on(dom),
                      generator(role, [g.object(o) for o in dom],
                                [g.object(o) for o in cod]),
                      on(cod))
            for role, (dom, cod) in _ROLE_SIGNATURES.items()}


def _complementary_idempotent_suite() -> EquationSuite:
    # The complementarity conditions for a binary idempotent on a linear
    # bialgebra: the complementary-system equations with every structure
    # map replaced by its idempotent-sandwiched image.  Because the
    # retraction/section composites collapse between consecutive maps,
    # checking these on the ambient gadget is equivalent to splitting the
    # idempotent and checking the complementary suite on the quotient.
    labels = [f"idemcomp.{c}-{side}" for c in "abc"
              for side in ("left", "right")]
    conditions = _substituted(_complementary_suite().equations, _sandwiched)
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
    return EquationSuite("dagger-bang-coherence", "exp_coherence",
                        ("Delta", "counit", "eps", "delta",
                         "nabla", "unit", "eta", "mu"), (
                            _pair("mult-is-comult-dagger", "nabla",
                                  "Delta", ["X", "X"], ["X"]),
                            _pair("unit-is-counit-dagger", "unit",
                                  "counit", [], ["X"]),
                            _pair("codereliction-is-dereliction-dagger",
                                  "eta", "eps", ["Y"], ["X"]),
                            _pair("comult-is-mult-dagger", "mu",
                                  "delta", ["Z"], ["X"]),
                        ))


def _build_registry() -> dict[str, EquationSuite]:
    suites = [
        _dual_suite(),
        _dual_morphism_suite(),
        _dual_sectional_suite(False),
        _dual_sectional_suite(True),
        _tensor_of_duals_suite(),
        _dagger_dual_suite(),
        _dagger_of_dual_suite(),
        _binary_idempotent_suite(),
        _dagger_binary_suite(),
        _linear_monoid_suite(),
        _monoid_actions_suite(),
        _monoid_sectional_suite(False),
        _monoid_sectional_suite(True),
        _dagger_linear_monoid_suite(),
        _frobenius_coincidence_suite(),
        _frobenius_algebra_suite(),
        _dagger_frobenius_suite(),
        _frobenius_splitting_suite(),
        _flipped_suite(_linear_monoid_suite(), "linear-comonoid",
                       "linear_comonoid"),
        # Reversing arrows exchanges sections and retractions.
        _flipped_suite(_monoid_sectional_suite(True), "comonoid-sectional",
                       "comonoid_idempotent"),
        _flipped_suite(_monoid_sectional_suite(False),
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
