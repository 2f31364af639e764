"""Degree-truncated free exponential: structure maps, lifts, functoriality,
and the induced bialgebra."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.errors import (MAX_ENTRIES, LdcError, LiftFailure, NotAComonoid,
                           ResourceLimit, ShapeMismatch)
from ldckit.exponential import (_monoidal, _window_unions, bang_apply_sparse,
                                bang_matrix, build_exp, comonad_coassoc_report,
                                comonoid_residual, comult_matrix,
                                counit_matrix, dereliction_matrix,
                                induce_bang_monoid, lift_flat, lift_sharp,
                                lifted_cap, lifted_cup, monoidal_structure,
                                retract_idempotent)
from ldckit.fixtures import load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv
from ldckit.multiset import (MultisetBasis, distinct_orderings,
                             multiset_union, sub_multiset_splits)
from ldckit.objects import Atom
from ldckit.suites import SUITES, check_suite

import exp_oracle


@pytest.fixture(scope="module")
def exp23():
    return build_exp(2, 3)


class TestMultisetBasis:
    def test_dimension_counts_bounded_multisets(self):
        # sizes 0..3 over 2 letters: 1 + 2 + 3 + 4
        assert MultisetBasis(["0", "1"], 3).dim == 10
        # iterating: multisets of size <= 3 over those 10 labels
        inner = MultisetBasis(["0", "1"], 3)
        assert MultisetBasis(inner.labels(), 3).dim == 286

    @settings(max_examples=50, deadline=None)
    @given(m=st.lists(st.integers(min_value=0, max_value=2),
                      max_size=4).map(lambda xs: tuple(sorted(xs))))
    def test_splits_partition_the_multiset(self, m):
        splits = list(sub_multiset_splits(m))
        # one split per sub-multiset, i.e. per choice of multiplicities
        expected = 1
        for x in set(m):
            expected *= m.count(x) + 1
        assert len(splits) == expected
        for m1, m2 in splits:
            assert multiset_union(m1, m2) == m

    @settings(max_examples=50, deadline=None)
    @given(m=st.lists(st.integers(min_value=0, max_value=2),
                      max_size=4).map(lambda xs: tuple(sorted(xs))))
    def test_distinct_orderings_are_distinct_and_complete(self, m):
        perms = distinct_orderings(m)
        assert len(perms) == len(set(perms))
        assert all(tuple(sorted(w)) == m for w in perms)


class TestStructureMaps:
    def test_comonoid_maps_are_integer_matrices(self, exp23):
        for mat in (exp23.Delta, exp23.counit_e, exp23.eps):
            assert np.array_equal(mat, mat.real.astype(int))

    def test_comonoid_laws_hold_exactly(self, exp23):
        assert comonoid_residual(exp23.Delta, exp23.counit_e) == 0.0

    def test_monad_side_is_the_dagger(self, exp23):
        assert np.array_equal(exp23.nabla, exp23.Delta.conj().T)
        assert np.array_equal(exp23.unit_u, exp23.counit_e.conj().T)
        assert np.array_equal(exp23.eta, exp23.eps.conj().T)
        assert np.array_equal(exp23.mu, exp23.delta.conj().T)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_is_refused(self, degree):
        with pytest.raises(LdcError, match="at least 1"):
            build_exp(2, degree)

    def test_dereliction_projects_singletons(self, exp23):
        basis = exp23.basis
        eps = dereliction_matrix(basis)
        assert eps.shape == (2, 10)
        for a in range(2):
            col = basis.index[(a,)]
            assert eps[a, col] == 1
        assert np.count_nonzero(eps) == 2

    def test_dagger_coherence_suite(self, exp23):
        env = ModelEnv.make({"bangA": 10, "A": 2, "bbA": 286})
        g = Gadget("exp_coherence",
                   {"X": Atom("bangA"), "Y": Atom("A"), "Z": Atom("bbA")},
                   {"Delta": exp23.Delta, "counit": exp23.counit_e,
                    "eps": exp23.eps, "delta": exp23.delta,
                    "nabla": exp23.nabla, "unit": exp23.unit_u,
                    "eta": exp23.eta, "mu": exp23.mu}, env)
        report = check_suite(g, SUITES["dagger-bang-coherence"], 1e-9)
        assert report.passed and report.worst() == 0.0

    def test_comonad_coassociativity_on_the_window(self):
        ok, worst, checked = comonad_coassoc_report(2, 3)
        assert ok and worst == 0.0
        assert checked > 0

    # the reports as they were before the duplication's columns were
    # memoized within a report
    @pytest.mark.parametrize("base, degree, want", [
        (2, 2, (True, 0.0, 42)), (3, 2, (True, 0.0, 71)),
        (2, 3, (True, 0.0, 321)), (3, 3, (True, 0.0, 752)),
        (2, 4, (True, 0.0, 2340))])
    def test_comonad_coassoc_report_is_unchanged(self, base, degree, want):
        assert comonad_coassoc_report(base, degree) == want


class TestFunctoriality:
    def test_identity_maps_to_identity(self, exp23):
        basis = exp23.basis
        assert np.array_equal(
            bang_matrix(np.eye(2, dtype=complex), basis, basis),
            np.eye(basis.dim))

    def test_shape_mismatch_rejected(self, exp23):
        with pytest.raises(ShapeMismatch):
            bang_matrix(np.eye(3, dtype=complex), exp23.basis, exp23.basis)

    @pytest.mark.parametrize("seed", range(5))
    def test_composition_is_preserved(self, seed, exp23):
        rng = np.random.default_rng(seed)
        basis = exp23.basis
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = bang_matrix(g @ f, basis, basis)
        rhs = bang_matrix(g, basis, basis) @ bang_matrix(f, basis, basis)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-10

    def test_grade_preservation(self, exp23):
        rng = np.random.default_rng(9)
        basis = exp23.basis
        f = rng.standard_normal((2, 2)) + 0j
        big = bang_matrix(f, basis, basis)
        degs = np.array(basis.degrees())
        off_grade = big[degs[:, None] != degs[None, :]]
        assert np.all(off_grade == 0)


complexes = st.complex_numbers(max_magnitude=2, allow_nan=False,
                               allow_infinity=False)


@st.composite
def maps_and_bases(draw):
    """A random f: A -> B with small bases of their own degree bounds."""
    na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = draw(st.lists(complexes, min_size=na * nb, max_size=na * nb))
    f = np.array(entries, dtype=complex).reshape(nb, na)
    basis_a = MultisetBasis([str(i) for i in range(na)],
                            draw(st.integers(0, 4)))
    basis_b = MultisetBasis([str(i) for i in range(nb)],
                            draw(st.integers(0, 4)))
    return f, basis_a, basis_b


class TestAgainstOracle:
    """The grade recursion and the closed-form duplication against the
    ordering sum and the couniversal lift they replace."""

    @settings(max_examples=100, deadline=None)
    @given(case=maps_and_bases())
    def test_bang_matrix(self, case):
        f, basis_a, basis_b = case
        got = bang_matrix(f, basis_a, basis_b)
        want = exp_oracle.bang_matrix(f, basis_a, basis_b)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(case=maps_and_bases())
    def test_bang_apply_sparse_gives_the_dense_columns(self, case):
        f, basis_a, basis_b = case
        basis_b = MultisetBasis(basis_b.base, basis_a.degree)
        dense = bang_matrix(f, basis_a, basis_b)
        scale = max(1.0, float(np.max(np.abs(dense))))
        for i, m in enumerate(basis_a.elements):
            col = bang_apply_sparse(
                lambda x: {t: f[t, x] for t in range(len(basis_b.base))}, m)
            got = np.zeros(basis_b.dim, dtype=complex)
            for k, v in col.items():
                got[basis_b.index[k]] = v
            assert float(np.max(np.abs(got - dense[:, i]))) <= 1e-12 * scale

    @pytest.mark.parametrize("base", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_comult_matrix_scatters_the_splits(self, base, degree):
        basis = MultisetBasis([str(i) for i in range(base)], degree)
        assert np.array_equal(comult_matrix(basis),
                              exp_oracle.split_comult_matrix(basis))

    @pytest.mark.parametrize("base, degree",
                             [(1, 3), (2, 2), (2, 5), (3, 3), (4, 2)])
    def test_window_unions_gather_delta_apply(self, base, degree):
        basis = MultisetBasis([str(i) for i in range(base)], degree)
        rng = np.random.default_rng([base, degree])
        f = rng.standard_normal((basis.dim, 3)) \
            + 1j * rng.standard_normal((basis.dim, 3))
        i1, i2, union = _window_unions(basis)
        got = np.zeros((basis.dim, basis.dim, 3), dtype=complex)
        got[i1, i2] = f[union]
        assert np.array_equal(got, exp_oracle.comult_apply(basis, f))

    # (3, 3) is left out: the oracle's lift takes seconds and a gigabyte
    @pytest.mark.parametrize("base, degree",
                             [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)
                              if (n, d) != (3, 3)])
    def test_duplication(self, base, degree):
        assert np.array_equal(build_exp(base, degree).delta,
                              exp_oracle.delta(base, degree))

    # every pair whose tensor !A (x) !B has dimension at most 36, where the
    # oracle's dense product comultiplication stays small
    @pytest.mark.parametrize(
        "base_a, base_b, degree",
        [(a, b, d) for a in (1, 2, 3) for b in (1, 2, 3) for d in range(1, 6)
         if MultisetBasis(range(a), d).dim * MultisetBasis(range(b), d).dim
         <= 36])
    def test_monoidal_structure(self, base_a, base_b, degree):
        exp_a = build_exp(base_a, degree, with_duplication=False)
        exp_b = build_exp(base_b, degree, with_duplication=False)
        got = monoidal_structure(exp_a, exp_b)
        want = exp_oracle.monoidal_structure(exp_a, exp_b)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@st.composite
def maps_and_wider_bases(draw):
    """A random complex f: A -> B, 1-4 base elements and degree 0-5 on
    each side, the two degrees drawn apart."""
    na, nb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.lists(complexes, min_size=na * nb, max_size=na * nb))
    f = np.array(entries, dtype=complex).reshape(nb, na)
    return (f, MultisetBasis([str(i) for i in range(na)],
                             draw(st.integers(0, 5))),
            MultisetBasis([str(i) for i in range(nb)],
                          draw(st.integers(0, 5))))


def _close(got, want, rel=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return got.shape == want.shape and (
        not got.size or float(np.max(np.abs(got - want))) <= rel * scale)


class TestAgainstTheGradeLoop:
    """The compiled tables against the per-element Python loops and the
    dense monoidal matrix that they replace."""

    @settings(max_examples=150, deadline=None)
    @given(case=maps_and_wider_bases())
    def test_bang_matrix(self, case):
        f, basis_a, basis_b = case
        assert _close(bang_matrix(f, basis_a, basis_b),
                      exp_oracle.peel_bang_matrix(f, basis_a, basis_b))

    @pytest.mark.parametrize("base_a, base_b, degree",
                             [(a, b, d) for a in (1, 2, 3, 4)
                              for b in (1, 2, 3, 4) for d in range(1, 5)
                              if (a * b) ** d <= 20000])
    def test_monoidal_index_is_the_dense_matrix(self, base_a, base_b,
                                                degree):
        exp_a = build_exp(base_a, degree, with_duplication=False)
        exp_b = build_exp(base_b, degree, with_duplication=False)
        want = exp_oracle.dense_monoidal_structure(exp_a, exp_b)
        index = _monoidal(base_a, base_b, degree).index
        assert np.array_equal(np.flatnonzero(want[1]),
                              np.arange(index.size) * want[1].shape[1]
                              + index)
        for got, w in zip(monoidal_structure(exp_a, exp_b), want):
            assert got.dtype == w.dtype and np.array_equal(got, w)

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "weil"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_lifted_cups_and_caps(self, name, degree):
        g = load_gadget(name)
        exp = build_exp(len(g.env.atoms[g.object("A").name][1]), degree,
                        with_duplication=False)
        for role in ("eta_L", "eta_R"):
            assert _close(lifted_cup(g.morphism(role), exp, exp),
                          exp_oracle.dense_lifted_cup(g.morphism(role),
                                                      exp, exp))
        for role in ("eps_L", "eps_R"):
            assert _close(lifted_cap(g.morphism(role), exp, exp),
                          exp_oracle.dense_lifted_cap(g.morphism(role),
                                                      exp, exp))

    def test_lifted_cup_of_distinct_spaces(self):
        rng = np.random.default_rng(3)
        exp_a = build_exp(2, 3, with_duplication=False)
        exp_b = build_exp(3, 3, with_duplication=False)
        state = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        assert _close(lifted_cup(state, exp_a, exp_b),
                      exp_oracle.dense_lifted_cup(state, exp_a, exp_b))
        assert _close(lifted_cap(state.T, exp_b, exp_a),
                      exp_oracle.dense_lifted_cap(state.T, exp_b, exp_a))

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "weil"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_induce_bang_monoid(self, name, degree):
        g = load_gadget(name)
        got = induce_bang_monoid(g, degree)
        want = exp_oracle.dense_induce_bang_monoid(g, degree)
        assert got.env == want.env and got.objects == want.objects
        assert got.gradings == want.gradings
        assert set(got.morphisms) == set(want.morphisms)
        for role, mat in want.morphisms.items():
            assert _close(got.morphism(role), mat), role


class TestResourceLimits:
    """Every dense allocation of the exponential is refused, naming the
    limit, before it is made."""

    def test_bang_matrix_output(self):
        basis = MultisetBasis([str(i) for i in range(12)], 6)
        assert basis.dim ** 2 > MAX_ENTRIES
        with pytest.raises(ResourceLimit, match="the limit is"):
            bang_matrix(np.eye(12), basis, basis)

    def test_comult_matrix(self):
        basis = MultisetBasis([str(i) for i in range(10)], 4)
        with pytest.raises(ResourceLimit, match="Delta"):
            comult_matrix(basis)

    def test_duplication(self):
        with pytest.raises(ResourceLimit, match="delta"):
            build_exp(5, 4)

    def test_dense_monoidal_structure(self):
        exp = build_exp(5, 4, with_duplication=False)
        with pytest.raises(ResourceLimit, match="m_tensor"):
            monoidal_structure(exp, exp)
        # the index form stays within reach
        lifted_cup(np.eye(5, dtype=complex).reshape(25, 1), exp, exp)


class TestLifts:
    def test_lift_of_dereliction_identity_sections_the_counit(self, exp23):
        basis = exp23.basis
        flat = lift_flat((exp23.Delta, exp23.counit_e),
                         exp23.eps, basis)
        # the couniversal property pins the lift of eps down to the identity
        assert np.array_equal(flat, np.eye(basis.dim))

    def test_lift_satisfies_its_defining_equation(self):
        # lift the qubit copy comonoid's identity: F; eps = id
        d = np.zeros((4, 2), dtype=complex)
        d[0, 0] = 1
        d[3, 1] = 1
        k = np.array([[1, 1]], dtype=complex)
        basis = MultisetBasis(["0", "1"], 3)
        flat = lift_flat((d, k), np.eye(2, dtype=complex), basis)
        eps = dereliction_matrix(basis)
        assert np.array_equal(eps @ flat, np.eye(2))

    def test_non_comonoid_input_rejected(self):
        basis = MultisetBasis(["0", "1"], 2)
        bad_d = np.ones((4, 2), dtype=complex)
        bad_k = np.ones((1, 2), dtype=complex)
        with pytest.raises(NotAComonoid):
            lift_flat((bad_d, bad_k), np.eye(2, dtype=complex), basis)

    def test_sharp_is_the_dagger_of_flat(self):
        m = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex)
        u = np.array([[1], [0]], dtype=complex)
        basis = MultisetBasis(["0", "1"], 3)
        sharp = lift_sharp((m, u), np.eye(2, dtype=complex), basis)
        flat = lift_flat((m.conj().T, u.conj().T),
                         np.eye(2, dtype=complex), basis)
        assert np.array_equal(sharp, flat.conj().T)
        eta = dereliction_matrix(basis).conj().T
        assert np.array_equal(sharp @ eta, np.eye(2))


class TestMonoidalStructure:
    def test_top_exponential_counts_degrees(self):
        m_top, _, _ = monoidal_structure(build_exp(1, 3), build_exp(1, 3))
        assert m_top.shape == (4, 1)
        assert np.array_equal(m_top, np.ones((4, 1)))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            monoidal_structure(build_exp(2, 2), build_exp(2, 3))

    def test_lifted_canonical_dual_satisfies_snakes(self):
        exp = build_exp(2, 2, with_duplication=False)
        cup = np.eye(2, dtype=complex).reshape(4, 1)
        eta = lifted_cup(cup, exp, exp)
        eps = lifted_cap(cup.conj().T, exp, exp)
        env = ModelEnv.make({"bangA": exp.dim})
        g = Gadget("dual", {"A": Atom("bangA"), "B": Atom("bangA")},
                   {"eta": eta, "eps": eps}, env)
        report = check_suite(g, SUITES["dual"], 1e-12)
        assert report.passed and report.worst() == 0.0


class TestInducedBialgebra:
    def test_induced_structure_is_a_linear_bialgebra(self, qubit_gadget):
        induced = induce_bang_monoid(qubit_gadget, degree=2)
        report = check_suite(induced, SUITES["linear-bialgebra"], 1e-9)
        assert report.passed

    def test_retract_splitting_is_exact(self, qubit_gadget):
        result = retract_idempotent(qubit_gadget, degree=2)
        eps, flat, sharp, eta = result["splitting"]
        assert np.array_equal(eps @ flat, np.eye(2))
        assert np.array_equal(sharp @ eta, np.eye(2))
        e_bang = result["e_bang"]
        assert np.array_equal(e_bang @ e_bang, e_bang)
        e_whim = result["e_whim"]
        assert np.array_equal(e_whim @ e_whim, e_whim)

    def test_non_self_bialgebra_rejected(self, qubit_gadget):
        env = ModelEnv.make({"Q": 2, "R": 2})
        env.atoms["Q"] = (2, ("0", "1"))
        env.atoms["R"] = (2, ("0", "1"))
        other = Gadget(qubit_gadget.kind,
                       {"A": Atom("Q"), "B": Atom("R")},
                       dict(qubit_gadget.morphisms), env)
        with pytest.raises(ShapeMismatch):
            retract_idempotent(other, degree=2)
