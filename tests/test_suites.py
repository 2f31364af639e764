"""Equation suites on the shipped example gadgets."""
from __future__ import annotations

import numpy as np
import pytest

from ldckit.circuit import dagger, isomorphic, mirror, reverse
from ldckit.errors import MissingRole, TypeMismatch
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, dims_of, evaluate
from ldckit.objects import Atom
from ldckit import suites
from ldckit.suites import SUITES, check_suite

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
    """The shipped algebras behave as documented: all three are linear
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
        """With a grading on the object, equations only constrain entries
        whose boundary degree stays within the environment's bound."""
        n = 3
        eta = np.eye(n, dtype=complex).reshape(n * n, 1)
        # spoil the snake exactly on the highest-degree basis vector
        eta_bad = eta.copy()
        eta_bad[(n - 1) * n + (n - 1), 0] = 0
        env = ModelEnv.make({"X": n}, degree=1)
        g = Gadget("dual", {"A": Atom("X"), "B": Atom("X")},
                   {"eta": eta_bad, "eps": eta.conj().T}, env,
                   gradings={"A": [0, 1, 2], "B": [0, 1, 2]})
        assert check_suite(g, SUITES["dual"], TOL).passed
        ungraded = Gadget("dual", g.objects, g.morphisms, env)
        assert not check_suite(ungraded, SUITES["dual"], TOL).passed


def _templates():
    """(suite, label, side, circuit) for every equation template, built
    over distinct objects A and B where the template allows it."""
    dims = {"A": 2, "B": 3, "A2": 2, "B2": 3, "C": 2, "D": 3,
            "X": 2, "Y": 3, "Z": 2}
    env = ModelEnv.make(dims)
    apart = Gadget("objects", {r: Atom(r) for r in dims}, {}, env)
    shared = Gadget("objects", {**apart.objects, "B": Atom("A")}, {}, env)
    out = []
    for suite in SUITES.values():
        for eq in suite.equations:
            try:
                sides = eq.build(apart)
            except TypeMismatch:
                sides = eq.build(shared)
            out += [(suite.name, eq.label, side, c)
                    for side, c in zip(("lhs", "rhs"), sides)]
    return env, out


_ENV, _TEMPLATES = _templates()
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
