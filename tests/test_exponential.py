"""Degree-truncated free exponential: structure maps, lifts, functoriality,
and the induced bialgebra."""
from __future__ import annotations

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.errors import (MAX_ENTRIES, LdcError, LiftFailure, NotAComonoid,
                           ResourceLimit, ShapeMismatch)
from ldckit.exponential import (_lifted_cap, _lifted_cup, _monoidal,
                                bang_matrix, build_exp,
                                comonad_coassoc_report,
                                comonoid_residual, comult_matrix,
                                counit_matrix, dereliction_matrix,
                                induce_bang_monoid, lift_flat, lift_sharp,
                                monoidal_structure, retract_idempotent)
from ldckit.fixtures import load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, interp
from ldckit import exponential, multiset
from ldckit.multiset import MultisetBasis, distinct_orderings
from ldckit.objects import Atom, Bang
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

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_empty_base_has_the_empty_multiset_only(self, degree):
        # the dimension check evaluated math.comb(-1, 0) and raised
        basis = MultisetBasis([], degree)
        assert basis.elements == ((),) and basis.dim == 1
        assert basis.labels() == ["[]"]

    def test_exponential_of_the_empty_base(self):
        for base in ([], 0):
            exp = build_exp(base, 2)
            assert exp.dim == 1 and exp.outer.dim == 3
            assert exp.eps.shape == (0, 1)
            # the empty multiset is the multiset of any number of empty parts
            assert exp.delta.tolist() == [[1.0], [1.0], [1.0]]
            assert comonoid_residual(exp.Delta, exp.counit_e) == 0.0
        assert comonad_coassoc_report(0, 2) == (True, 0.0, 8)

    # a negative bound raised a bare ValueError, and 1.5 a TypeError
    @pytest.mark.parametrize("degree", [-1, 1.5, "2"])
    def test_bad_degree_is_refused(self, degree):
        with pytest.raises(LdcError, match=f"got {degree!r}"):
            MultisetBasis(["a"], degree)
        with pytest.raises(LdcError, match=f"got {degree!r}"):
            comonad_coassoc_report(2, degree)

    @settings(max_examples=50, deadline=None)
    @given(m=st.lists(st.integers(min_value=0, max_value=2),
                      max_size=4).map(lambda xs: tuple(sorted(xs))))
    def test_splits_partition_the_multiset(self, m):
        splits = list(exp_oracle.sub_multiset_splits(m))
        # one split per sub-multiset, i.e. per choice of multiplicities
        expected = 1
        for x in set(m):
            expected *= m.count(x) + 1
        assert len(splits) == expected
        for m1, m2 in splits:
            assert exp_oracle.multiset_union(m1, m2) == m

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

    def test_dereliction_of_degree_zero_is_refused(self):
        # it looked up the singleton (0,), which a degree-0 basis lacks
        with pytest.raises(LdcError, match="at least 1, got 0"):
            dereliction_matrix(MultisetBasis(["0", "1"], 0))

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
    # memoized within a report, (3, 4) and (2, 5) as they were before
    # the report built only its degree window, and (3, 5) as it was
    # before the report read the shape's tables
    PINNED = [
        (2, 2, (True, 0.0, 42)), (3, 2, (True, 0.0, 71)),
        (2, 3, (True, 0.0, 321)), (3, 3, (True, 0.0, 752)),
        (2, 4, (True, 0.0, 2340)), (3, 4, (True, 0.0, 7458)),
        (2, 5, (True, 0.0, 15477)), (3, 5, (True, 0.0, 67406))]

    @pytest.mark.parametrize("base, degree, want", PINNED)
    def test_comonad_coassoc_report_is_unchanged(self, base, degree, want):
        assert comonad_coassoc_report(base, degree) == want

    @pytest.mark.parametrize("base, degree, want", PINNED)
    def test_the_window_is_counted_before_it_is_built(self, base, degree,
                                                      want):
        # the count that refuses a window too large to build is the
        # number of entries the report compares
        assert multiset._law_size(base, degree, MAX_ENTRIES) == want[2]
        assert len(multiset._multisets(base, degree).law.first) == want[2]

    # (500, 3), (10000, 2) and (2, 30) hold about 1.5e9, 4.0e8 and more
    # than 4e8 entries; the report accepted them and ran for hours or out
    # of memory
    @pytest.mark.parametrize("base, degree", [(500, 3), (10000, 2),
                                              (2, 30)])
    def test_a_window_too_large_is_refused_at_once(self, base, degree):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimit, match="comonad law window"):
            comonad_coassoc_report(base, degree)
        assert time.perf_counter() - t0 < 1.0


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
        degs = basis.shape.degrees
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


@st.composite
def duplication_products(draw):
    """A multiset of parts P from a column of the duplication, its degree
    bound d, and a bound on the total size of the monomials of !delta at P."""
    degree = draw(st.integers(1, 4))
    base = draw(st.integers(1, 3 if degree < 4 else 2))
    labels = [str(i) for i in range(base)]
    m = draw(st.sampled_from(MultisetBasis(labels, degree).elements))
    parts = draw(st.sampled_from(sorted(exp_oracle.delta_sparse(m,
                                                                degree))))
    return parts, degree, draw(st.integers(0, degree + 1))


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
            col = exp_oracle.bang_apply_sparse(
                lambda x: {t: f[t, x] for t in range(len(basis_b.base))}, m)
            got = np.zeros(basis_b.dim, dtype=complex)
            for k, v in col.items():
                got[basis_b.index[k]] = v
            assert float(np.max(np.abs(got - dense[:, i]))) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(case=duplication_products())
    def test_bounded_product_is_the_restricted_product(self, case):
        parts, degree, bound = case

        def column(x):
            return exp_oracle.delta_sparse(x, degree)
        full = exp_oracle.bang_apply_sparse(column, parts)
        assert exp_oracle.bounded_bang_apply_sparse(column, parts, bound) \
            == {k: v for k, v in full.items() if sum(map(len, k)) <= bound}

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
        i1, i2, union = basis.shape.splits
        got = np.zeros((basis.dim, basis.dim, 3), dtype=complex)
        got[i1, i2] = f[union]
        assert np.array_equal(got, exp_oracle.comult_apply(basis, f))

    @pytest.mark.parametrize("base, degree",
                             [(n, d) for n in range(5) for d in range(5)]
                             + [(2, 5)])
    def test_comonad_coassoc_report(self, base, degree):
        assert comonad_coassoc_report(base, degree) \
            == exp_oracle.comonad_coassoc_report(base, degree)

    @pytest.mark.parametrize("base, degree", [(3, 4), (4, 4), (10, 3)])
    def test_comonad_coassoc_report_past_the_whole_product(self, base,
                                                           degree):
        assert comonad_coassoc_report(base, degree) \
            == exp_oracle.window_comonad_coassoc_report(base, degree)

    # (4, 4) is left out: its dense delta holds 85 M entries
    @pytest.mark.parametrize("base, degree",
                             [(n, d) for n in range(5) for d in range(1, 5)
                              if (n, d) != (4, 4)])
    def test_duplication_columns(self, base, degree):
        exp = build_exp(base, degree)
        want = np.zeros_like(exp.delta)
        for i, m in enumerate(exp.basis.elements):
            for parts, c in exp_oracle.delta_sparse(m, degree).items():
                key = tuple(sorted(exp.basis.index[p] for p in parts))
                want[exp.outer.index[key], i] = c
        assert np.array_equal(exp.delta, want)

    @pytest.mark.parametrize("base, degree",
                             [(n, d) for n in range(5) for d in range(5)])
    def test_duplication_table(self, base, degree):
        # the table that build_exp scatters, at every shape above
        shape = multiset._multisets(base, degree)
        table = shape.parts
        got = {(p, shape.elements[u])
               for p, u in zip(table.elements, table.union.tolist())}
        want = {(tuple(sorted(shape.index[p] for p in parts)), m)
                for m in shape.elements
                for parts in exp_oracle.delta_sparse(m, degree)}
        assert got == want and len(got) == len(table.elements)

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
         if math.comb(a + d, d) * math.comb(b + d, d) <= 36])
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
            assert got.dtype == np.float64 and np.array_equal(got, w)

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "weil"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_lifted_cups_and_caps(self, name, degree):
        g = load_gadget(name)
        exp = build_exp(len(g.env.atoms[g.object("A").name][1]), degree,
                        with_duplication=False)
        for role in ("eta_L", "eta_R"):
            assert _close(_lifted_cup(g.morphism(role), exp.basis,
                                      exp.basis),
                          exp_oracle.dense_lifted_cup(g.morphism(role),
                                                      exp, exp))
        for role in ("eps_L", "eps_R"):
            assert _close(_lifted_cap(g.morphism(role), exp.basis,
                                      exp.basis),
                          exp_oracle.dense_lifted_cap(g.morphism(role),
                                                      exp, exp))

    def test_lifted_cup_of_distinct_spaces(self):
        rng = np.random.default_rng(3)
        exp_a = build_exp(2, 3, with_duplication=False)
        exp_b = build_exp(3, 3, with_duplication=False)
        state = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
        assert _close(_lifted_cup(state, exp_a.basis, exp_b.basis),
                      exp_oracle.dense_lifted_cup(state, exp_a, exp_b))
        assert _close(_lifted_cap(state.T, exp_b.basis, exp_a.basis),
                      exp_oracle.dense_lifted_cap(state.T, exp_b, exp_a))

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "weil"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_induce_bang_monoid(self, name, degree):
        g = load_gadget(name)
        got = induce_bang_monoid(g, degree)
        want = exp_oracle.dense_induce_bang_monoid(g, degree)
        assert got.env == want.env and got.objects == want.objects
        assert got.objects == {"A": Bang(g.object("A")),
                               "B": Bang(g.object("B"))}
        assert (got.env.atoms, got.env.degree) == (g.env.atoms, degree)
        assert set(got.morphisms) == set(want.morphisms)
        for role, mat in want.morphisms.items():
            assert _close(got.morphism(role), mat), role


class TestResourceLimits:
    """Every dense allocation of the exponential is refused, naming the
    limit, before it is made."""

    @pytest.mark.parametrize("letters, degree, what", [
        (3, 99_999_999_999, "multisets"),
        (3, 400, "letters of all multisets"),
        (2, 3000, "letters of all multisets"),
        (1, 2 ** 27, "multisets")])
    def test_multiset_basis(self, letters, degree, what):
        # every multiset was built before any size was checked: degree 400
        # over 3 letters ran out of 3 GB
        with pytest.raises(ResourceLimit, match=re.escape(f"({what})")):
            MultisetBasis([str(i) for i in range(letters)], degree)

    def test_multiset_basis_at_the_limit_is_counted_exactly(self,
                                                           monkeypatch):
        # over 2 letters, the 10 multisets of size <= 3 hold 2 C(5, 3) = 20
        # letters in all
        monkeypatch.setattr(multiset, "MAX_ENTRIES", 20)
        basis = MultisetBasis(["0", "1"], 3)
        assert sum(map(len, basis.elements)) == 20
        monkeypatch.setattr(multiset, "MAX_ENTRIES", 19)
        with pytest.raises(ResourceLimit, match=r"letters of all multisets\)"
                                                r": needs 20, the limit is 19"):
            MultisetBasis(["0", "1"], 3)

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
        _lifted_cup(np.eye(5, dtype=complex).reshape(25, 1), exp.basis,
                    exp.basis)

    def test_comonoid_check(self):
        # coassociativity holds 110**4 = 146 M entries, which the einsum
        # form built
        n = 110
        with pytest.raises(ResourceLimit,
                           match="largest contraction intermediate"):
            comonoid_residual(np.zeros((n * n, n)), np.zeros((1, n)))


def _copy_comonoid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The comonoid that copies each of n basis vectors."""
    d = np.zeros((n * n, n))
    d[np.arange(n) * (n + 1), np.arange(n)] = 1
    return d, np.ones((1, n))


def _free_comonoid(base: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    exp = build_exp(base, degree, with_duplication=False)
    return exp.Delta, exp.counit_e


# (base, degree) of free exponentials of each dimension 1 to 6
_FREE = [(0, 1), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1),
         (2, 2), (1, 5), (5, 1)]


class TestComonoidResidual:
    """The comonoid laws of `suites`, checked by `check_suite`, against the
    four `np.einsum` contractions that decided them before."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=0, max_value=6),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           field=st.sampled_from([float, complex]),
           near=st.sampled_from([None, 1e-1, 1e-2]))
    def test_matches_the_einsum_form(self, n, seed, field, near):
        # random pairs, or copy comonoids moved by `near`
        rng = np.random.default_rng(seed)

        def noise(shape):
            out = rng.standard_normal(shape)
            if field is complex:
                out = out + 1j * rng.standard_normal(shape)
            return out

        if near is None:
            d, k = noise((n * n, n)), noise((1, n))
        else:
            d, k = _copy_comonoid(n)
            d, k = d + near * noise(d.shape), k + near * noise(k.shape)
        want = exp_oracle.comonoid_residual(d, k)
        assert comonoid_residual(d, k) == pytest.approx(want, rel=1e-12,
                                                        abs=0)

    @pytest.mark.parametrize("comonoid",
                             [_copy_comonoid(n) for n in range(7)]
                             + [_free_comonoid(*bd) for bd in _FREE],
                             ids=[f"copy{n}" for n in range(7)]
                             + [f"free{b}-{d}" for b, d in _FREE])
    def test_a_comonoid_has_residual_zero_both_ways(self, comonoid):
        assert comonoid_residual(*comonoid) == 0.0
        assert exp_oracle.comonoid_residual(*comonoid) == 0.0


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
        eta = _lifted_cup(cup, exp.basis, exp.basis)
        eps = _lifted_cap(cup.conj().T, exp.basis, exp.basis)
        env = ModelEnv.make({"bangA": exp.dim})
        g = Gadget("dual", {"A": Atom("bangA"), "B": Atom("bangA")},
                   {"eta": eta, "eps": eps}, env)
        report = check_suite(g, SUITES["dual"], 1e-12)
        assert report.passed and report.worst() == 0.0


def _two_object_monoid() -> Gadget:
    """The function algebra on 2 points with its dual on another atom."""
    m = np.zeros((2, 4))
    m[0, 0] = m[1, 3] = 1
    cup = np.eye(2).reshape(4, 1)
    return Gadget("linear_monoid", {"A": Atom("X"), "B": Atom("Y")},
                  {"m": m, "u": np.ones((2, 1)), "eta_L": cup,
                   "eps_L": cup.T, "eta_R": cup, "eps_R": cup.T},
                  ModelEnv.make({"X": 2, "Y": 2}))


class TestInducedBialgebra:
    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "weil", "quad4",
                                      "two-objects"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_lifted_duals_match_the_hand_ordered_lifts(self, name, degree):
        g = (_two_object_monoid() if name == "two-objects"
             else load_gadget(name))
        induced = induce_bang_monoid(g, degree)
        labels = [interp(g.object(o), g.env)[1] for o in "AB"]
        ref = exp_oracle.lifted_duals(
            g, *(MultisetBasis(ls, degree) for ls in labels))
        assert list(induced.morphisms) == ["m", "u", "d", "k", *ref]
        for role, mat in ref.items():
            assert np.array_equal(induced.morphisms[role], mat), role
        assert (name == "two-objects") == (induced.object("A")
                                           != induced.object("B"))
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

    # it built through a private twin, out of sight of a wrapper
    def test_retract_builds_through_the_public_induction(self, qubit_gadget,
                                                         monkeypatch):
        calls = []

        def induce(*args):
            calls.append(args[1:])
            return induce_bang_monoid(*args)

        monkeypatch.setattr(exponential, "induce_bang_monoid", induce)
        result = retract_idempotent(qubit_gadget, degree=2, tol=1e-8)
        assert calls == [(2, 1e-8)]
        basis = MultisetBasis(["0", "1"], 2)
        assert np.array_equal(result["splitting"][0],
                              dereliction_matrix(basis))

    def test_non_self_bialgebra_rejected(self, qubit_gadget):
        env = ModelEnv.make({"Q": 2, "R": 2})
        env.atoms["Q"] = (2, ("0", "1"))
        env.atoms["R"] = (2, ("0", "1"))
        other = Gadget(qubit_gadget.kind,
                       {"A": Atom("Q"), "B": Atom("R")},
                       dict(qubit_gadget.morphisms), env)
        with pytest.raises(ShapeMismatch):
            retract_idempotent(other, degree=2)
