"""Constructive transformations: splittings, reflections, antipodes, and
the metamorphic guarantees of the four splitting lemmas."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from ldckit import structures
from ldckit.errors import MissingRole, ShapeMismatch, SuiteFailure
from ldckit.exponential import retract_idempotent
from ldckit.fixtures import load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, split_idempotent
from ldckit.objects import Atom
from ldckit.structures import (actions_to_monoid, antipode,
                               compact_reflection,
                               complementary_from_idempotent,
                               dagger_of_dual, monoid_to_actions,
                               split_binary_idempotent, split_linear_comonoid,
                               split_linear_monoid, tensor_of_duals,
                               weak_preunitary_from_dagger_split)
from ldckit.suites import SUITES, check_suite

import structures_oracle

TOL = 1e-9
X = Atom("X")


def bell(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex).reshape(n * n, 1)


# -- shared example structures ----------------------------------------------

def pointwise_monoid(n: int = 3) -> Gadget:
    """The function algebra on n points: coordinatewise product with the
    all-ones unit and canonical-basis duals."""
    m = np.zeros((n, n * n), dtype=complex)
    for i in range(n):
        m[i, i * n + i] = 1
    cup, cap = bell(n), bell(n).conj().T
    env = ModelEnv.make({"X": n})
    return Gadget("linear_monoid", {"A": X, "B": X},
                  {"m": m, "u": np.ones((n, 1), dtype=complex),
                   "eta_L": cup.copy(), "eps_L": cap.copy(),
                   "eta_R": cup.copy(), "eps_R": cap.copy()}, env)


def copy_comonoid(n: int = 3) -> Gadget:
    """The basis-copying comonoid on n points with canonical-basis duals."""
    d = np.zeros((n * n, n), dtype=complex)
    for i in range(n):
        d[i * n + i, i] = 1
    cup, cap = bell(n), bell(n).conj().T
    env = ModelEnv.make({"X": n})
    return Gadget("linear_comonoid", {"A": X, "B": X},
                  {"d": d, "k": np.ones((1, n), dtype=complex),
                   "tau_L": cup.copy(), "gam_L": cap.copy(),
                   "tau_R": cup.copy(), "gam_R": cap.copy()}, env)


E_GOOD = np.diag([1.0, 1.0, 0.0]).astype(complex)
# idempotent, but neither an algebra nor a coalgebra map for the examples
E_BAD = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)


# -- binary idempotents ------------------------------------------------------

class TestBinaryIdempotent:
    @pytest.mark.parametrize("seed", range(5))
    def test_pseudoinverse_pairs_split_to_isomorphism(self, seed):
        """(u, pinv u) is a binary idempotent; both splittings have the
        rank of u and the induced comparison maps are mutually inverse."""
        rng = np.random.default_rng(seed)
        na, nb = rng.integers(2, 6, size=2)
        u = rng.standard_normal((nb, na)) + 1j * rng.standard_normal((nb, na))
        v = np.linalg.pinv(u)
        env = ModelEnv.make({"A": int(na), "B": int(nb)})
        g = Gadget("binary_idempotent",
                   {"A": Atom("A"), "B": Atom("B")}, {"u": u, "v": v}, env)
        assert check_suite(g, SUITES["binary-idempotent"], 1e-8).passed
        res = split_binary_idempotent(g, tol=1e-8)
        alpha, beta = res["alpha"], res["beta"]
        k = res["dim_e"]
        assert k == res["dim_e2"] == np.linalg.matrix_rank(u)
        assert float(np.max(np.abs(alpha @ beta - np.eye(k)))) <= 1e-8
        assert float(np.max(np.abs(beta @ alpha - np.eye(k)))) <= 1e-8

    def test_dagger_split_structure_map_is_hermitian(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(x)
        p = q @ q.conj().T          # orthogonal projector: p = p @ p = p^dag
        env = ModelEnv.make({"A": 4})
        g = Gadget("binary_idempotent", {"A": Atom("A"), "B": Atom("A")},
                   {"u": p, "v": p}, env)
        assert check_suite(g, SUITES["dagger-binary"], 1e-8).passed
        _, report = weak_preunitary_from_dagger_split(g, tol=1e-8)
        assert report.passed


# -- presentations and reflections ------------------------------------------

class TestPresentations:
    @pytest.mark.parametrize("name", ["weil", "quad4"])
    def test_actions_round_trip(self, name, request):
        g = request.getfixturevalue(f"{name.replace('-', '_')}_gadget")
        acts = monoid_to_actions(g)
        assert check_suite(acts, SUITES["monoid-actions"], TOL).passed
        back = actions_to_monoid(acts)
        for role in ("m", "u", "eta_L", "eps_L", "eta_R", "eps_R"):
            assert np.allclose(back.morphism(role), g.morphism(role)), role

    def test_compact_reflection_is_an_involution(self, weil_gadget):
        reflected = compact_reflection(weil_gadget)
        assert reflected.kind == "linear_comonoid"
        assert check_suite(reflected, SUITES["linear-comonoid"], TOL).passed
        back = compact_reflection(reflected)
        for role in ("m", "u", "eta_L", "eps_L", "eta_R", "eps_R"):
            assert np.array_equal(back.morphism(role),
                                  weil_gadget.morphism(role)), role


class TestDuals:
    def _canonical_dual(self, n: int = 3) -> Gadget:
        env = ModelEnv.make({"X": n})
        return Gadget("dual", {"A": X, "B": X},
                      {"eta": bell(n), "eps": bell(n).conj().T}, env)

    def test_dagger_of_dual(self):
        out = dagger_of_dual(self._canonical_dual())
        assert check_suite(out, SUITES["dual"], TOL).passed

    def test_tensor_of_duals(self):
        base = self._canonical_dual(2)
        paired = Gadget("dual_pair",
                        {"A": base.object("A"), "B": base.object("B"),
                         "C": base.object("A"), "D": base.object("B")},
                        {"eta": base.morphism("eta"),
                         "eps": base.morphism("eps"),
                         "eta2": base.morphism("eta"),
                         "eps2": base.morphism("eps")}, base.env)
        out = tensor_of_duals(paired)
        assert check_suite(out, SUITES["dual"], TOL).passed


class TestAntipode:
    def test_parity_system_has_identity_antipodes(self, qubit_gadget):
        s_tensor, s_par = antipode(qubit_gadget)
        assert np.allclose(s_tensor, np.eye(2))
        assert np.allclose(s_par, np.eye(2))

    def test_non_complementary_input_rejected(self, qubit_gadget):
        phase = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        cup = np.kron(eye, phase) @ qubit_gadget.morphism("tau_L")
        cap = qubit_gadget.morphism("gam_L") @ np.kron(phase, eye)
        twisted = qubit_gadget.with_morphisms(
            tau_L=cup, tau_R=cup.copy(), gam_L=cap, gam_R=cap.copy())
        with pytest.raises(SuiteFailure):
            antipode(twisted)


# -- the four splitting lemmas, metamorphically ------------------------------
#
# In each case the checker's verdict on the idempotent's compatibility
# equations must agree with the verdict on the split structure: compatible
# data splits to a passing structure, incompatible data both fails the
# compatibility suite and yields a failing split when forced through.

class TestDualSplitLemma:
    def _gadget(self, e_a, e_b):
        env = ModelEnv.make({"X": 3})
        return Gadget("dual_idempotent", {"A": X, "B": X},
                      {"eta": bell(3), "eps": bell(3).conj().T,
                       "e_a": e_a, "e_b": e_b}, env)

    def _split(self, e_a, e_b) -> Gadget:
        r, s = split_idempotent(e_a)
        r2, s2 = split_idempotent(e_b)
        env = ModelEnv.make({"E": r.shape[0], "E2": r2.shape[0]})
        return Gadget("dual", {"A": Atom("E"), "B": Atom("E2")},
                      {"eta": np.kron(r, r2) @ bell(3),
                       "eps": bell(3).conj().T @ np.kron(s2, s)}, env)

    def test_compatible_pair_splits_to_a_dual(self):
        g = self._gadget(E_GOOD, E_GOOD)
        assert check_suite(g, SUITES["dual-sectional"], TOL).passed
        assert check_suite(self._split(E_GOOD, E_GOOD),
                           SUITES["dual"], TOL).passed

    def test_incompatible_pair_fails_both_ways(self):
        e_small = np.diag([1.0, 0.0, 0.0]).astype(complex)
        g = self._gadget(E_GOOD, e_small)
        report = check_suite(g, SUITES["dual-sectional"], TOL)
        assert not report.passed
        assert report.residuals["cap-absorption"] >= 1.0
        split = check_suite(self._split(E_GOOD, e_small),
                            SUITES["dual"], TOL)
        assert not split.passed


class TestMonoidSplitLemma:
    def test_retractional_idempotent_splits_to_a_monoid(self):
        g = pointwise_monoid()
        probe = g.with_morphisms(e=E_GOOD)
        assert check_suite(probe, SUITES["monoid-retractional"], TOL).passed
        split = split_linear_monoid(g, E_GOOD, E_GOOD, tol=TOL)
        assert check_suite(split, SUITES["linear-monoid"], TOL).passed

    def test_incompatible_idempotent_fails_both_ways(self):
        g = pointwise_monoid()
        probe = g.with_morphisms(e=E_BAD)
        assert not check_suite(probe, SUITES["monoid-retractional"],
                               TOL).passed
        with pytest.raises(SuiteFailure):
            split_linear_monoid(g, E_BAD, E_BAD, tol=TOL)
        forced = structures_oracle.split_linear_monoid(g, E_BAD, E_BAD,
                                                       tol=TOL, check=False)
        assert not check_suite(forced, SUITES["linear-monoid"], TOL).passed


class TestComonoidSplitLemma:
    def test_sectional_idempotent_splits_to_a_comonoid(self):
        g = copy_comonoid()
        probe = g.with_morphisms(e=E_GOOD)
        assert check_suite(probe, SUITES["comonoid-sectional"], TOL).passed
        split = split_linear_comonoid(g, E_GOOD, E_GOOD, tol=TOL)
        assert check_suite(split, SUITES["linear-comonoid"], TOL).passed

    def test_incompatible_idempotent_fails_both_ways(self):
        # E_BAD absorbs into the copy comonoid itself but breaks the
        # absorption equations of the duals, which the checker also guards
        g = copy_comonoid()
        with pytest.raises(SuiteFailure):
            split_linear_comonoid(g, E_BAD, E_BAD, tol=TOL)
        forced = structures_oracle.split_linear_comonoid(g, E_BAD, E_BAD,
                                                         tol=TOL, check=False)
        assert not check_suite(forced, SUITES["linear-comonoid"], TOL).passed


class TestBialgebraSplitLemma:
    @pytest.mark.parametrize("missing, kept", [("ub", "vb"), ("vb", "ub")])
    def test_missing_idempotent_role_is_named(self, qubit_gadget, missing,
                                              kept):
        g = qubit_gadget.with_morphisms(**{kept: np.eye(2, dtype=complex)})
        assert missing not in g.morphisms
        with pytest.raises(MissingRole) as err:
            complementary_from_idempotent(g, tol=TOL)
        assert err.value.role == missing

    def test_idempotents_that_do_not_compose_are_refused(self, qubit_gadget):
        g = qubit_gadget.with_morphisms(ub=np.ones((2, 3)), vb=np.eye(2))
        with pytest.raises(ShapeMismatch):
            complementary_from_idempotent(g, tol=TOL)

    def test_identity_idempotent_reproduces_the_system(self, qubit_gadget):
        eye = np.eye(2, dtype=complex)
        g = qubit_gadget.with_morphisms(ub=eye, vb=eye)
        out = complementary_from_idempotent(g, tol=TOL)
        assert out["conditions"].passed
        assert out["complementary"].passed
        # with the trivial splitting, the compatibility conditions are the
        # complementary equations themselves, residual for residual
        assert list(out["conditions"].residuals.values()) \
            == list(out["complementary"].residuals.values())

    def test_twisted_duals_fail_both_ways(self, qubit_gadget):
        phase = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        cup = np.kron(eye, phase) @ qubit_gadget.morphism("tau_L")
        cap = qubit_gadget.morphism("gam_L") @ np.kron(phase, eye)
        twisted = qubit_gadget.with_morphisms(
            tau_L=cup, tau_R=cup.copy(), gam_L=cap, gam_R=cap.copy(),
            ub=eye, vb=eye)
        # still a linear bialgebra, but no longer complementary
        assert check_suite(twisted, SUITES["linear-bialgebra"], TOL).passed
        out = complementary_from_idempotent(twisted, tol=TOL)
        assert not out["conditions"].passed
        assert not out["complementary"].passed
        assert list(out["conditions"].residuals.values()) \
            == list(out["complementary"].residuals.values())

    def test_counit_unit_idempotent_fails_both_ways(self, qubit_gadget):
        e = qubit_gadget.morphism("u") @ qubit_gadget.morphism("k")
        g = qubit_gadget.with_morphisms(ub=e, vb=e)
        assert not check_suite(g, SUITES["complementary-idempotent-cond"],
                               TOL).passed
        with pytest.raises(SuiteFailure):
            complementary_from_idempotent(g, tol=TOL)
        forced = structures_oracle.split_linear_bialgebra(g, e, e, tol=TOL,
                                                          check=False)
        assert not check_suite(forced, SUITES["complementary"], TOL).passed


# -- the one split path against the splitters that took a flavour -----------

def _oracle_splits(kind: str, g: Gadget, e_a, e_b, splitting=None) -> dict:
    """The oracle's split gadget under each flavour it accepts: each
    `retractional` flag, and for the bialgebra each (monoid, comonoid)
    pair."""
    split = getattr(structures_oracle, f"split_linear_{kind}")
    flavours = (list(itertools.product((False, True), repeat=2))
                if kind == "bialgebra" else [False, True])
    out = {}
    for flavour in flavours:
        try:
            out[flavour] = split(g, e_a, e_b, TOL, retractional=flavour,
                                 splitting=splitting)
        except SuiteFailure:
            pass
    return out


def _assert_matches_oracle(kind: str, g: Gadget, e_a, e_b,
                           splitting=None) -> list:
    """Where the oracle accepts some flavour, the split is its gadget bit
    for bit; where it refuses every one, the split raises SuiteFailure.
    Returns the accepted flavours."""
    accepted = _oracle_splits(kind, g, e_a, e_b, splitting)
    split = getattr(structures, f"split_linear_{kind}")
    if not accepted:
        with pytest.raises(SuiteFailure):
            split(g, e_a, e_b, TOL, splitting=splitting)
        return []
    got = split(g, e_a, e_b, TOL, splitting=splitting)
    for ref in accepted.values():
        assert (got.kind, got.objects, got.env) \
            == (ref.kind, ref.objects, ref.env)
        assert list(got.morphisms) == list(ref.morphisms)
        for role, mat in ref.morphisms.items():
            assert np.array_equal(got.morphisms[role], mat), role
    return list(accepted)


def _qubit_idempotent(which: str) -> tuple:
    g = load_gadget("qubit-zx")
    e = (np.eye(2, dtype=complex) if which == "identity"
         else g.morphism("u") @ g.morphism("k"))
    return g, e, e, None


def _retract(name: str) -> tuple:
    result = retract_idempotent(load_gadget(name), degree=2)
    g = result["gadget"]
    ub, vb = g.morphism("ub"), g.morphism("vb")
    return g, vb @ ub, ub @ vb, result["splitting"]


BOTH = list(itertools.product((False, True), repeat=2))
# case: (build, {kind: the flavours the oracle accepts})
ORACLE_CASES = {
    "pointwise-good": (lambda: (pointwise_monoid(), E_GOOD, E_GOOD, None),
                       {"monoid": [True]}),
    "pointwise-bad": (lambda: (pointwise_monoid(), E_BAD, E_BAD, None),
                      {"monoid": []}),
    "copy-good": (lambda: (copy_comonoid(), E_GOOD, E_GOOD, None),
                  {"comonoid": [False]}),
    "copy-bad": (lambda: (copy_comonoid(), E_BAD, E_BAD, None),
                 {"comonoid": []}),
    "qubit-identity": (lambda: _qubit_idempotent("identity"),
                       {"monoid": [False, True], "comonoid": [False, True],
                        "bialgebra": BOTH}),
    "qubit-counit-unit": (lambda: _qubit_idempotent("u;k"),
                          {"monoid": [], "comonoid": [],
                           "bialgebra": []}),
    "qubit-zx-retract": (lambda: _retract("qubit-zx"),
                         {"monoid": [True], "comonoid": [False],
                          "bialgebra": [(True, False)]}),
    "zn3-retract": (lambda: _retract("zn:3"),
                    {"monoid": [True], "comonoid": [False],
                     "bialgebra": [(True, False)]}),
}


def _random_idempotent(rng, n: int) -> np.ndarray:
    """A coordinate projector of rank 1 to n, half the time conjugated by
    an integer matrix of determinant 1."""
    d = np.zeros(n)
    d[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = 1
    if rng.random() < 0.5:
        return np.diag(d).astype(complex)
    p = ((np.eye(n) + np.triu(rng.integers(-2, 3, (n, n)), 1))
         @ (np.eye(n) + np.tril(rng.integers(-2, 3, (n, n)), -1)))
    return (p @ np.diag(d) @ np.linalg.inv(p)).astype(complex)


def _seeded_cases():
    """Thirty seeded rounds of random idempotents (e_a, e_b) on each of
    three gadgets, each with the kinds of split it is tried with."""
    rng = np.random.default_rng(0)
    qubit = load_gadget("qubit-zx")
    for _ in range(30):
        for g, n, kinds in ((pointwise_monoid(), 3, ["monoid"]),
                            (copy_comonoid(), 3, ["comonoid"]),
                            (qubit, 2, ["monoid", "comonoid", "bialgebra"])):
            e_a = _random_idempotent(rng, n)
            e_b = (e_a.copy() if rng.random() < 0.5
                   else _random_idempotent(rng, n))
            yield g, e_a, e_b, kinds


class TestSplitAgainstOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_named_cases(self, case):
        build, expected = ORACLE_CASES[case]
        g, e_a, e_b, splitting = build()
        for kind, flavours in expected.items():
            assert _assert_matches_oracle(kind, g, e_a, e_b,
                                          splitting) == flavours, kind

    def test_seeded_random_idempotents(self):
        outcomes = [bool(_assert_matches_oracle(kind, g, e_a, e_b))
                    for g, e_a, e_b, kinds in _seeded_cases()
                    for kind in kinds]
        # both verdicts occur, so neither branch is compared vacuously
        assert 0 < sum(outcomes) < len(outcomes)

    def test_refusal_names_the_failing_suite_of_each_flavour(self):
        with pytest.raises(SuiteFailure) as err:
            split_linear_monoid(pointwise_monoid(), E_BAD, E_BAD, tol=TOL)
        assert err.value.suite == ("monoid-sectional (sectional) and "
                                   "monoid-retractional (retractional)")


# -- the flavour check against the one that built two probes ----------------

def _flavour_outcome(require, g, side, e_a, e_b):
    """The suite and message of the refusal of `require`, or None."""
    try:
        require(g, side, e_a, e_b, TOL)
    except SuiteFailure as exc:
        return exc.suite, str(exc)
    return None


def _assert_flavour_matches_oracle(g, e_a, e_b, kinds) -> list:
    """The flavour check of each side that `kinds` split accepts and
    refuses as the oracle's does, with the same message; returns whether
    each side was accepted."""
    sides = {side for kind in kinds
             for side in (["monoid", "comonoid"] if kind == "bialgebra"
                          else [kind])}
    accepted = []
    for side in sorted(sides):
        got = _flavour_outcome(structures._require_flavour, g, side, e_a, e_b)
        assert got == _flavour_outcome(structures_oracle._require_flavour,
                                       g, side, e_a, e_b), side
        accepted.append(got is None)
    return accepted


class TestFlavourAgainstOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_named_cases(self, case):
        build, expected = ORACLE_CASES[case]
        g, e_a, e_b, _ = build()
        _assert_flavour_matches_oracle(g, e_a, e_b, expected)

    def test_seeded_random_idempotents(self):
        outcomes = sum((_assert_flavour_matches_oracle(g, e_a, e_b, kinds)
                        for g, e_a, e_b, kinds in _seeded_cases()), [])
        assert 0 < sum(outcomes) < len(outcomes)

    def test_checks_build_no_gadget_of_their_own(self, monkeypatch):
        built = []
        monkeypatch.setattr(structures, "Gadget",
                            lambda *args, **kw: built.append(args))
        g, e_a, e_b, _ = _retract("qubit-zx")
        for side in ("monoid", "comonoid"):
            structures._require_flavour(g, side, e_a, e_b, TOL)
        assert built == []
