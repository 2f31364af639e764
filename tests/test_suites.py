"""Equation suites on the built-in example gadgets."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ldckit.circuit import dagger, isomorphic, mirror, reverse
from ldckit.errors import MAX_ENTRIES, LdcError, MissingRole, TypeMismatch
from ldckit.exponential import induce_bang_monoid, retract_idempotent
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, evaluate, interp
from ldckit.objects import Atom, Bang, factors
from ldckit import suites
from ldckit.suites import SUITES, Equation, check_suite

import suite_oracle
from model_oracle import dims_of

TOL = 1e-9


class TestRegistry:
    def test_known_suites_present(self):
        expected = {"dual", "dual-morphism", "dual-sectional",
                    "dual-retractional", "binary-idempotent",
                    "linear-monoid", "monoid-actions",
                    "dagger-linear-monoid", "frobenius-coincidence",
                    "linear-comonoid", "dagger-linear-comonoid",
                    "linear-bialgebra", "complementary", "hopf",
                    "complementary-idempotent-cond", "preunitary",
                    "dagger-bang-coherence"}
        assert expected <= set(SUITES)

    def test_missing_role_is_loud(self, qubit_gadget):
        stripped = Gadget(qubit_gadget.kind, dict(qubit_gadget.objects),
                          {"m": qubit_gadget.morphism("m")},
                          qubit_gadget.env)
        with pytest.raises(MissingRole):
            check_suite(stripped, SUITES["linear-bialgebra"], TOL)

    def test_report_json_shape(self, qubit_gadget):
        report = check_suite(qubit_gadget, SUITES["complementary"], TOL)
        doc = report.to_json()
        assert doc["suite"] == "complementary"
        assert doc["pass"] is True
        assert doc["tol"] == TOL
        labels = {e["label"] for e in doc["equations"]}
        assert labels == {"comp.1-left", "comp.1-right", "comp.2-left",
                          "comp.2-right", "comp.3-left", "comp.3-right"}
        assert all(e["residual"] == 0.0 for e in doc["equations"])


class TestExampleVerdicts:
    """The built-in algebras behave as documented: all three are linear
    monoids, two are dagger linear monoids, none admits the identity as a
    Frobenius coincidence isomorphism, and the qubit gadget is a
    complementary Hopf system."""

    def test_all_fixtures_load(self):
        assert fixture_names() == ["quad4", "quad4-flip", "qubit-zx", "weil"]
        for name in fixture_names():
            load_gadget(name)

    @pytest.mark.parametrize("name", ["weil", "quad4", "quad4-flip"])
    def test_algebras_are_linear_monoids(self, name):
        g = load_gadget(name)
        assert check_suite(g, SUITES["linear-monoid"], TOL).passed

    @pytest.mark.parametrize("name", ["weil", "quad4"])
    def test_dagger_linear_monoids(self, name):
        g = load_gadget(name)
        assert check_suite(g, SUITES["dagger-linear-monoid"], TOL).passed

    def test_flip_breaks_the_dagger_comparison(self, quad4_flip_gadget):
        report = check_suite(quad4_flip_gadget,
                             SUITES["dagger-linear-monoid"], TOL)
        assert not report.passed
        assert report.residuals["comult-is-mult-dagger"] >= 1.0

    @pytest.mark.parametrize("name", ["weil", "quad4", "quad4-flip"])
    def test_no_frobenius_coincidence(self, name):
        g = load_gadget(name)
        report = check_suite(g, SUITES["frobenius-coincidence"], TOL)
        assert not report.passed
        assert report.worst() >= 1e3 * TOL

    def test_qubit_is_complementary_and_hopf(self, qubit_gadget):
        for suite in ("linear-bialgebra", "complementary", "hopf",
                      "frobenius-coincidence"):
            report = check_suite(qubit_gadget, SUITES[suite], TOL)
            assert report.passed, suite
            assert report.worst() == 0.0, suite

    def test_qubit_binary_idempotent(self, qubit_gadget):
        u = qubit_gadget.morphism("u")
        k = qubit_gadget.morphism("k")
        probe = Gadget("binary_idempotent", dict(qubit_gadget.objects),
                       {"u": u @ k, "v": u @ k}, qubit_gadget.env)
        assert check_suite(probe, SUITES["binary-idempotent"], TOL).passed


class TestSensitivity:
    """Perturbing any structure map must trip at least one equation."""

    @pytest.mark.parametrize("role", ["m", "u", "d", "k",
                                      "eta_L", "eps_L", "eta_R", "eps_R",
                                      "tau_L", "gam_L", "tau_R", "gam_R"])
    def test_perturbation_detected(self, qubit_gadget, role):
        mat = qubit_gadget.morphism(role).copy()
        mat[0, 0] += 1e-3
        perturbed = qubit_gadget.with_morphisms(**{role: mat})
        verdicts = [check_suite(perturbed, SUITES[name], TOL).passed
                    for name in ("complementary", "hopf", "linear-bialgebra")]
        assert not all(verdicts)


class TestTemplateCache:
    """Each equation's circuits are built once per object typing and kept
    with their compiled contractions; the matrices are read anew by every
    check."""

    SUITE = "linear-monoid"

    def fresh(self, g: Gadget) -> dict:
        suites._TEMPLATES.clear()
        return check_suite(g, SUITES[self.SUITE], TOL).to_json()

    @pytest.mark.parametrize("names", [("qubit-zx", "weil"),
                                       ("weil", "qubit-zx")])
    def test_two_typings_in_either_order(self, names):
        gadgets = [load_gadget(n) for n in names]
        assert gadgets[0].objects != gadgets[1].objects
        want = [self.fresh(g) for g in gadgets]
        suites._TEMPLATES.clear()
        for _ in range(2):
            for g, doc in zip(gadgets, want):
                assert check_suite(g, SUITES[self.SUITE], TOL).to_json() \
                    == doc
        assert len(suites._TEMPLATES) == 2 * len(SUITES[self.SUITE].equations)

    @staticmethod
    def rotated(g: Gadget, angle: float) -> Gadget:
        """Every leg of every map of a qubit gadget turned by a rotation."""
        q = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])

        def legs(n: int) -> np.ndarray:
            out = np.eye(1)
            for _ in range(int(np.log2(n))):
                out = np.kron(out, q)
            return out
        return g.with_morphisms(**{
            r: legs(m.shape[0]) @ m @ legs(m.shape[1]).T
            for r, m in g.morphisms.items()})

    def test_same_typing_reads_its_own_matrices(self, qubit_gadget):
        m = qubit_gadget.morphism("m").copy()
        m[0, 0] += 1e-3
        gadgets = (qubit_gadget, qubit_gadget.with_morphisms(m=m),
                   self.rotated(qubit_gadget, 0.3))
        want = [self.fresh(g) for g in gadgets]
        assert [doc["pass"] for doc in want] == [True, False, True]
        assert want[2] != want[0]   # rounding differs after the rotation
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            for k in order:
                assert check_suite(gadgets[k], SUITES[self.SUITE],
                                   TOL).to_json() == want[k]


class TestGradedMasking:
    def test_out_of_window_entries_are_ignored(self):
        """On objects typed !X, equations only constrain entries whose
        boundary degree stays within the environment's bound.  A single
        wire of !X never passes the bound, so the spoiled entry is a cup's,
        at the pair ([0], [0]) of degree 2 on a two-wire boundary."""
        env = ModelEnv.make({"X": 2}, degree=1)
        bang = Bang(Atom("X"))
        n = interp(bang, env)[0]          # [], [0], [1]
        cup = np.eye(n).reshape(n * n, 1)
        spoiled = cup.copy()
        spoiled[1 * n + 1, 0] = 0
        morphs = {"eta": cup, "eps": cup.T, "eta2": spoiled, "eps2": cup.T,
                  "f": np.eye(n), "g": np.eye(n)}
        roles = ("A", "B", "A2", "B2")
        g = Gadget("dual_morphism", {r: bang for r in roles}, morphs, env)
        report = check_suite(g, SUITES["dual-morphism"], TOL)
        assert report.passed and report.worst() == 0.0
        # the same matrices on an atom of the same dimension: no window
        flat = Gadget("dual_morphism", {r: Atom("E") for r in roles},
                      morphs, ModelEnv.make({"E": n}, degree=1))
        report = check_suite(flat, SUITES["dual-morphism"], TOL)
        assert report.residuals == {"cup-morphism": 1.0,
                                    "cap-morphism": 0.0}


def _exponential(kind: str, base: Gadget, degree: int) -> Gadget:
    """The induced or retract gadget of `base` at `degree`."""
    if kind == "induced":
        return induce_bang_monoid(base, degree)
    return retract_idempotent(base, degree)["gadget"]


def _exponential_gadgets():
    """The induced and retract gadgets of qubit-zx, zn:3 and zn:4 at
    degrees 1-3, by name."""
    for name in ("qubit-zx", "zn:3", "zn:4"):
        base = load_gadget(name)
        for degree in (1, 2, 3):
            for kind in ("induced", "retract"):
                yield f"{kind}-{name}@{degree}", _exponential(kind, base,
                                                              degree)


# The equations whose sides at degree 5 on zn:4, where !X has 126 basis
# vectors, would pass MAX_ENTRIES: the four-legged laws (126^4 > 2^27).
_PAST_THE_LIMIT = {
    ("linear-monoid", "assoc"), ("dagger-linear-monoid", "assoc"),
    ("frobenius-algebra", "assoc"), ("frobenius-algebra", "coassoc"),
    ("frobenius-algebra", "frobenius-left"),
    ("frobenius-algebra", "frobenius-right"),
    ("linear-comonoid", "coassoc"), ("dagger-linear-comonoid", "coassoc"),
    ("linear-bialgebra", "assoc"), ("linear-bialgebra", "coassoc"),
    ("linear-bialgebra", "tensor-mult-comult"),
    ("linear-bialgebra", "par-mult-comult"),
}


class TestTypedWindow:
    @pytest.mark.parametrize("margin", [1, -1, 0.5, "0", None])
    def test_no_equation_narrows_the_window(self, margin):
        build = SUITES["dual"].equations[0].build
        assert Equation("x", build) == Equation("x", build, 0)
        with pytest.raises(LdcError, match="its margin is 0"):
            Equation("x", build, margin)

    def test_the_window_of_the_types_is_the_gradings_window(self):
        # the window read from the Bang types against the one read from a
        # gradings table on the same gadget typed on opaque atoms, for
        # every suite that applies: every residual exactly equal
        checked = 0
        for name, g in _exponential_gadgets():
            assert all(isinstance(t, Bang) for t in g.objects.values())
            flat, gradings = suite_oracle.atom_typed(g)
            for suite in SUITES.values():
                if not g.has(*suite.roles):
                    continue
                got = check_suite(g, suite, TOL).to_json()
                want = suite_oracle.graded_check_suite(flat, suite, gradings,
                                                       TOL).to_json()
                assert got == want, (name, suite.name)
                checked += 1
        assert checked == 162

    @pytest.mark.parametrize("kind", ["induced", "retract"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "zn:4"])
    def test_the_window_holds_at_a_higher_degree(self, name, degree, kind):
        # every windowed entry of both sides of every equation is the entry
        # of the same multisets at degree + 2, so the window needs no
        # margin.  A degree-d basis is a prefix of the degree-D one, so each
        # factor's index maps unchanged.  Sides too large at degree + 2 are
        # skipped, and named.
        t0 = time.perf_counter()
        base = load_gadget(name)
        g = _exponential(kind, base, degree)
        env = suites.suite_env(g)
        high_env = suites.suite_env(_exponential(kind, base, degree + 2))
        checked, skipped = 0, set()
        for suite in SUITES.values():
            if not g.has(*suite.roles):
                continue
            for eq in suite.equations:
                sides = suites._sides(eq, g)
                outs, ins = sides[0].output_types(), sides[0].input_types()
                if math.prod(interp(f, high_env)[0] for t in outs + ins
                             for f in factors(t)) > MAX_ENTRIES:
                    skipped.add((suite.name, eq.label))
                    continue
                window = np.ix_(
                    suites._boundary_degrees(outs, env) <= degree,
                    suites._boundary_degrees(ins, env) <= degree)
                for side in sides:
                    low = evaluate(side, env)
                    high = _truncated(evaluate(side, high_env), outs + ins,
                                      env, high_env).reshape(low.shape)
                    assert np.array_equal(low[window], high[window]), \
                        (suite.name, eq.label)
                    checked += 1
        assert skipped == (_PAST_THE_LIMIT if (name, degree) == ("zn:4", 3)
                           else set())
        assert checked == {"induced": 168, "retract": 184}[kind] \
            - 2 * len(skipped)
        # at most 8.1 s measured (zn:4 at degree 2 against 4, where the
        # four-legged sides hold 24 M entries), on a 2-vCPU host
        assert time.perf_counter() - t0 < 30.0


def _truncated(m: np.ndarray, types, env: ModelEnv,
               high_env: ModelEnv) -> np.ndarray:
    """`m`, over the boundary `types` at `high_env`'s degree, cut to the
    basis vectors those types have at `env`'s: a prefix in each factor."""
    def dims(e):
        return [interp(f, e)[0] for t in types for f in factors(t)]
    return m.reshape(dims(high_env))[tuple(slice(n) for n in dims(env))]


def _templates():
    """(suite, label, side, circuit) for every equation template, built
    over distinct objects A and B where the template allows it, and the
    probe gadget that each (suite, label) was built on."""
    dims = {"A": 2, "B": 3, "A2": 2, "B2": 3, "C": 2, "D": 3,
            "X": 2, "Y": 3, "Z": 2}
    env = ModelEnv.make(dims)
    apart = Gadget("objects", {r: Atom(r) for r in dims}, {}, env)
    shared = Gadget("objects", {**apart.objects, "B": Atom("A")}, {}, env)
    out, typings = [], {}
    for suite in SUITES.values():
        for eq in suite.equations:
            try:
                sides = eq.build(apart)
                typings[suite.name, eq.label] = apart
            except TypeMismatch:
                sides = eq.build(shared)
                typings[suite.name, eq.label] = shared
            out += [(suite.name, eq.label, side, c)
                    for side, c in zip(("lhs", "rhs"), sides)]
    return env, out, typings


_ENV, _TEMPLATES, _TYPINGS = _templates()
_IDS = [f"{s}/{label}/{side}" for s, label, side, _ in _TEMPLATES]


_EQUATIONS = [(s, label, lhs, rhs) for (s, label, _, lhs), (*_, rhs)
              in zip(_TEMPLATES[::2], _TEMPLATES[1::2])]


@pytest.mark.parametrize("suite,label,lhs,rhs", _EQUATIONS,
                         ids=[f"{s}/{label}" for s, label, *_ in _EQUATIONS])
def test_sides_differ(suite, label, lhs, rhs):
    """An equation whose sides are one circuit holds on every gadget."""
    assert not isomorphic(lhs, rhs)


# The roles that a suite declares and none of its templates reads.
_UNREAD = {
    "monoid-retractional": {"u"},
    "comonoid-sectional": {"k"},
    "complementary": {"d", "gam_L", "gam_R"},
    "complementary-idempotent-cond": {"d", "gam_L", "gam_R"},
    "hopf": {"eta_R", "eps_R", "tau_R"},
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_templates_read_declared_roles(name):
    """Every generator a template reads, less its _dag/_inv suffix, is a
    declared role, and the roles read by none are pinned."""
    reads = {n.removesuffix("_dag").removesuffix("_inv")
             for s, _, _, c in _TEMPLATES if s == name
             for n in c.generator_names}
    roles = set(SUITES[name].roles)
    assert reads <= roles
    assert roles - reads == _UNREAD.get(name, set())


# The roles typed where they are built, as their names mean other maps in
# other suites (see `suites._role`).
_CLASHES = {("binary-idempotent", "u"), ("dagger-binary", "u"),
            ("dagger-bang-coherence", "eta"), ("dagger-bang-coherence", "eps")}


def test_generators_carry_the_table_signatures():
    """Every generator whose name, less _dag, is in `suites._SIGNATURES`
    carries the table's signature on the probe it was built on, with A read
    as A or as B, and dom and cod exchanged for a _dag; the roles of
    `_CLASHES` carry another.  Every role of the table is read but the
    antipode placeholder s, which the Hopf laws substitute away."""
    seen = set()
    for s, label, _, c in _TEMPLATES:
        objects = _TYPINGS[s, label].objects
        for node in c.nodes.values():
            if node.kind != "gen":
                continue
            role = node.name.removesuffix("_dag")
            if role not in suites._SIGNATURES:
                continue
            typed = (tuple(node.dom), tuple(node.cod))
            if role != node.name:
                typed = typed[::-1]
            table = [tuple(tuple(objects[on if o == "A" else o] for o in objs)
                           for objs in suites._SIGNATURES[role])
                     for on in "AB"]
            assert (typed in table) != ((s, role) in _CLASHES), \
                (s, label, node.name, typed)
            seen.add(role)
    assert seen == set(suites._SIGNATURES) - {"s"}


def test_only_the_antipodes_need_a_shared_object():
    """The Hopf laws, whose antipodes need B = A, are the only templates
    built on the shared probe, so a generator typed off the table shows on
    the distinct one."""
    assert {key for key, g in _TYPINGS.items()
            if g.objects["B"] == g.objects["A"]} == {
        ("hopf", f"hopf-{side}-{hand}") for side in ("tensor", "par")
        for hand in ("left", "right")}


def test_sides_with_other_boundary_types():
    """`check_suite` compares matrices of equal shape only; these are the
    equations whose sides differ in boundary types at the typings above."""
    differ = {(s, label) for s, label, lhs, rhs in _EQUATIONS
              if (lhs.input_types(), lhs.output_types())
              != (rhs.input_types(), rhs.output_types())}
    assert differ == {
        ("dagger-binary", "u-hermitian"), ("dagger-binary", "v-hermitian"),
        ("preunitary", "structure-map-hermitian"),
        ("dagger-linear-monoid", "dagger-dual-left"),
        ("dagger-linear-monoid", "dagger-dual-right"),
        ("dagger-linear-comonoid", "dagger-dual-left"),
        ("dagger-linear-comonoid", "dagger-dual-right"),
    }


def _toggle(suffix: str):
    """The renaming n <-> n + suffix."""
    return lambda n: n.removesuffix(suffix) if n.endswith(suffix) \
        else n + suffix


def _ports_reversed(m: np.ndarray, rows: list[int],
                    cols: list[int]) -> np.ndarray:
    """The matrix `m`, from ports of dimensions `cols` to ports of
    dimensions `rows`, with the order of each reversed."""
    axes = [*reversed(range(len(rows))),
            *reversed(range(len(rows), len(rows) + len(cols)))]
    return m.reshape(rows + cols).transpose(axes).reshape(m.shape)


_prime = _toggle("'")


def _primed(flip):
    return lambda c: flip(c, {n: _prime(n) for n in c.generator_names})


# Each flip of a template: how it renames a generator, the flip itself, and
# what it does to a matrix with ports of the given output and input
# dimensions: each generator's, and so the template's.
_FLIPS = {
    "reverse": (_prime, _primed(reverse), lambda m, rows, cols: m.T),
    "dagger": (_toggle("_dag"), dagger, lambda m, rows, cols: m.conj().T),
    "mirror": (_prime, _primed(mirror), _ports_reversed),
}
_FLIP_CASES = [(flip, *t) for flip in _FLIPS for t in _TEMPLATES]
_FLIP_IDS = _IDS + [f"{flip}:{i}" for flip in ("dagger", "mirror")
                    for i in _IDS]


class TestReverse:
    """`reverse` and `mirror`, with every generator primed, and `dagger` on
    every equation template of every suite: each is its own inverse, and
    evaluates to the transpose, the conjugate transpose and the matrix with
    its boundary reversed."""

    @pytest.mark.parametrize("flip,suite,label,side,c", _FLIP_CASES,
                             ids=_FLIP_IDS)
    def test_flip_twice_is_isomorphic(self, flip, suite, label, side, c):
        flipped = _FLIPS[flip][1]
        assert isomorphic(flipped(flipped(c)), c)

    @pytest.mark.parametrize("flip,suite,label,side,c", _FLIP_CASES,
                             ids=_FLIP_IDS)
    def test_flip_evaluates_to_transpose(self, flip, suite, label, side, c):
        rename, flipped, on_matrix = _FLIPS[flip]
        rng = np.random.default_rng(len(c.nodes))
        env = ModelEnv(atoms=_ENV.atoms)
        flipped_env = ModelEnv(atoms=_ENV.atoms)
        for n in c.nodes.values():
            if n.kind == "gen" and n.name not in env.generators:
                rows, cols = dims_of(n.cod, env), dims_of(n.dom, env)
                shape = (int(np.prod(rows)), int(np.prod(cols)))
                m = rng.standard_normal(shape) \
                    + 1j * rng.standard_normal(shape)
                env.assign(n.name, m)
                flipped_env.assign(rename(n.name), on_matrix(m, rows, cols))
        want = on_matrix(evaluate(c, env), dims_of(c.output_types(), env),
                         dims_of(c.input_types(), env))
        got = evaluate(flipped(c), flipped_env)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
