"""Matrix semantics: evaluation, duals, and idempotent factorization."""
from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import (dagger_box, generator, identity, par, permutation,
                            seq, swap)
from ldckit.errors import (MAX_ENTRIES, LdcError, NotIdempotent,
                           ResourceLimit, ShapeMismatch, UnassignedGenerator,
                           UnboundAtom)
from ldckit.gadget import Gadget, gadget_from_json
from ldckit.model import (ModelEnv, contraction_cost, evaluate, interp,
                          matrices_equal, split_idempotent)
from ldckit.objects import Atom, Bang, Bot, Par, Tensor, Top
from ldckit.suites import SUITES, check_suite

from conftest import random_projector

A, B, C = Atom("A"), Atom("B"), Atom("C")


def env_with(dims: dict[str, int], **gens) -> ModelEnv:
    env = ModelEnv.make(dims)
    for name, mat in gens.items():
        env.assign(name, mat)
    return env


class TestInterp:
    def test_units_are_one_dimensional(self):
        env = ModelEnv.make({})
        assert interp(Top(), env)[0] == 1
        assert interp(Bot(), env)[0] == 1

    def test_both_tensors_multiply_dimensions(self):
        env = ModelEnv.make({"A": 2, "B": 3})
        assert interp(Tensor(A, B), env)[0] == 6
        assert interp(Par(A, B), env)[0] == 6

    def test_bang_counts_bounded_multisets(self):
        env = ModelEnv.make({"A": 2}, degree=3)
        # multisets of size <= 3 over 2 letters: 1 + 2 + 3 + 4
        assert interp(Bang(A), env)[0] == 10

    def test_unbound_atom_rejected(self):
        with pytest.raises(UnboundAtom):
            interp(Atom("missing"), ModelEnv.make({}))

    # -2 was accepted, and evaluating over it raised NumPy's ValueError
    @pytest.mark.parametrize("dim", [-2, 1.5, True, "2"])
    def test_bad_dimension_is_refused(self, dim):
        with pytest.raises(LdcError, match=f"atom 'A': .*got {dim!r}"):
            ModelEnv.make({"A": dim})

    # ModelEnv.make({"Q": 10**9}) built 10**9 labels, about 64 GB, before
    # anything checked a size
    @pytest.mark.parametrize("dim", [2 ** 25 + 1, 10 ** 9])
    @pytest.mark.parametrize("make", [
        lambda dim: ModelEnv.make({"Q": dim}),
        lambda dim: ModelEnv(atoms={"Q": (dim, ())}),
        lambda dim: gadget_from_json({"kind": "k", "objects": {},
                                      "atoms": {"Q": {"dim": dim}},
                                      "morphisms": {}})])
    def test_dimension_past_the_label_limit_is_refused(self, make, dim):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit) as info:
            make(dim)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (f"atom 'Q' (basis labels): needs {dim}, "
                                   f"the limit is {2 ** 25}")

    def test_dimension_zero_is_kept(self):
        env = ModelEnv.make({"A": 0, "B": np.int64(2)})
        assert interp(Atom("A"), env) == (0, ())
        assert evaluate(identity([Atom("A")]), env).shape == (0, 0)
        assert interp(Atom("B"), env)[0] == 2

    # the constructor took any table, and evaluating over -2 raised NumPy's
    # ValueError
    @pytest.mark.parametrize("dim", [-2, 1.5, True, "2"])
    def test_constructor_refuses_a_bad_dimension(self, dim):
        with pytest.raises(LdcError, match=f"atom 'A': .*got {dim!r}"):
            ModelEnv(atoms={"A": (dim, ())})

    @pytest.mark.parametrize("labels", [(), ("0",), ("0", "1", "2")])
    def test_constructor_refuses_one_label_too_few_or_many(self, labels):
        with pytest.raises(LdcError, match=f"atom 'A': 2 basis labels "
                                           f"expected, got {len(labels)}"):
            ModelEnv(atoms={"A": (2, labels)})

    # {"A": 2} raised "cannot unpack non-iterable int object"; labels that
    # were no strings were taken, and MultisetBasis.label raised TypeError
    @pytest.mark.parametrize("entry", [2, (2,), "2", (2, ("0", "1"), ()),
                                       (2, (0, 1)), (2, "01"), (1, None)])
    def test_constructor_refuses_an_entry_that_is_no_pair_of_labels(
            self, entry):
        with pytest.raises(LdcError, match=f"atom 'A': .*got "):
            ModelEnv(atoms={"A": entry})

    # labels are judged before the dim, and the refusal names the entry
    @pytest.mark.parametrize("entry", [(2, (0, 1)), (-1, (0, 1)),
                                       (2.5, (1,)), [2, ["a", 1]]])
    def test_constructor_names_the_whole_entry(self, entry):
        with pytest.raises(LdcError) as info:
            ModelEnv(atoms={"A": entry})
        assert str(info.value) == (f"atom 'A': an entry is a dim and a list "
                                   f"of string labels, got {entry!r}")

    def test_constructor_stores_an_int_and_a_tuple(self):
        env = ModelEnv(atoms={"A": [np.int64(2), ["x", "y"]]},
                       degree=np.int64(2))
        assert env.atoms == {"A": (2, ("x", "y"))}
        assert type(env.atoms["A"][0]) is type(env.degree) is int
        assert interp(Bang(Atom("A")), env)[1] == ("[]", "[x]", "[y]",
                                                   "[x,x]", "[x,y]", "[y,y]")

    def test_constructor_keeps_its_labels(self):
        env = ModelEnv(atoms={"A": (0, ()), "B": (2, ("x", "y"))})
        assert interp(Atom("A"), env) == (0, ())
        assert interp(Atom("B"), env) == (2, ("x", "y"))


class TestNonFinite:
    """A NaN or infinite entry is refused where a matrix enters."""
    BAD = [np.nan, np.inf, -np.inf, complex(1, np.nan), complex(np.inf, 2)]

    # assign took [[nan]], and evaluating the generator returned it
    @pytest.mark.parametrize("bad", BAD)
    def test_assign(self, bad):
        env = ModelEnv.make({"A": 1})
        with pytest.raises(LdcError, match="finite"):
            env.assign("f", np.array([[bad]]))
        assert "f" not in env.generators
        with pytest.raises(LdcError, match="finite"):
            ModelEnv.make({"A": 1}, generators={"f": np.array([[bad]])})

    # the constructor took generators={"f": [[nan]]} unchecked, and
    # evaluating the generator returned it
    @pytest.mark.parametrize("bad", BAD)
    def test_constructor(self, bad):
        with pytest.raises(LdcError, match="finite"):
            ModelEnv(atoms={"A": (1, ("0",))},
                     generators={"f": np.array([[bad]])})
        env = ModelEnv(generators={"f": [[1, 2]], "g": [[1j]]})
        assert env.generators["f"].dtype == float
        assert env.generators["g"].dtype == complex

    @pytest.mark.parametrize("bad", BAD)
    def test_gadget(self, bad):
        m = np.array([[1.0, bad]])
        with pytest.raises(LdcError, match="finite"):
            Gadget("probe", {}, {"f": m}, ModelEnv())
        with pytest.raises(LdcError, match="finite"):
            Gadget("probe", {}, {}, ModelEnv()).with_morphisms(f=m)

    def test_finite_entries_pass(self):
        big = np.finfo(float).max
        env = env_with({"A": 1}, f=[[big]], g=[[complex(-big, 5e-324)]])
        assert evaluate(generator("f", [A], [A]), env)[0, 0] == big
        assert env.generators["g"].dtype == complex


class TestEvaluate:
    def test_generator_is_its_matrix(self):
        f = np.arange(6, dtype=complex).reshape(3, 2)
        env = env_with({"A": 2, "B": 3}, f=f)
        assert np.array_equal(evaluate(generator("f", [A], [B]), env), f)

    @pytest.mark.parametrize("rows, field", [
        ([[1, 2], [3, 4], [5, 6]], np.float64),
        ([[1, 2j], [3, 4], [5, 6]], np.complex128)])
    def test_make_binds_generators_in_their_field(self, rows, field):
        env = ModelEnv.make({"A": 2, "B": 3}, generators={"f": rows})
        got = evaluate(generator("f", [A], [B]), env)
        assert got.dtype == field and np.array_equal(got, rows)

    def test_zero_imaginary_part_is_stored_real(self):
        f = (np.arange(6).reshape(2, 3) + 0j).T
        env = env_with({"A": 2, "B": 3}, f=f)
        assert env.generators["f"].dtype == np.float64
        assert env.generators["f"].flags.c_contiguous
        assert np.array_equal(env.generators["f"], f)

    def test_unassigned_generator_rejected(self):
        with pytest.raises(UnassignedGenerator):
            evaluate(generator("mystery", [A], [A]), ModelEnv.make({"A": 2}))

    def test_wrong_shape_rejected(self):
        env = env_with({"A": 2, "B": 3}, f=np.eye(2, dtype=complex))
        with pytest.raises(ShapeMismatch):
            evaluate(generator("f", [A], [B]), env)

    def test_identity_wire(self):
        env = ModelEnv.make({"A": 3})
        assert np.array_equal(evaluate(identity([A]), env), np.eye(3))

    def test_parallel_is_kronecker(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((3, 2)) + 0j
        g = rng.standard_normal((2, 2)) + 0j
        env = env_with({"A": 2, "B": 3}, f=f, g=g)
        c = par(generator("f", [A], [B]), generator("g", [A], [A]))
        assert np.allclose(evaluate(c, env), np.kron(f, g))

    def test_swap_is_the_commutation_matrix(self):
        env = ModelEnv.make({"A": 2, "B": 3})
        mat = evaluate(swap(A, B), env)
        x = np.arange(6)
        assert np.allclose(mat @ x, x.reshape(2, 3).T.reshape(-1))

    def test_permutation_matches_index_shuffle(self):
        env = ModelEnv.make({"A": 2, "B": 3, "C": 2})
        mat = evaluate(permutation([A, B, C], [2, 0, 1]), env)
        x = np.arange(12).reshape(2, 3, 2)
        assert np.allclose((mat @ x.reshape(-1)).reshape(2, 2, 3),
                           np.transpose(x, (2, 0, 1)))

    def test_dagger_box_is_conjugate_transpose(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        env = env_with({"A": 2, "B": 3}, f=f)
        mat = evaluate(dagger_box(generator("f", [A], [B])), env)
        assert np.allclose(mat, f.conj().T)

    def test_state_and_costate(self):
        v = np.array([[1.0], [2.0]], dtype=complex)
        env = env_with({"A": 2}, v=v)
        assert np.allclose(evaluate(generator("v", [], [A]), env), v)
        costate = evaluate(dagger_box(generator("v", [], [A])), env)
        assert costate.shape == (1, 2)
        assert np.allclose(costate @ v, np.array([[5.0]]))

    def test_compositional_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            na, nb, nc = rng.integers(1, 5, size=3)
            f = rng.standard_normal((nb, na)) \
                + 1j * rng.standard_normal((nb, na))
            g = rng.standard_normal((nc, nb)) \
                + 1j * rng.standard_normal((nc, nb))
            env = env_with({"A": int(na), "B": int(nb), "C": int(nc)},
                           f=f, g=g)
            got = evaluate(seq(generator("f", [A], [B]),
                               generator("g", [B], [C])), env)
            assert float(np.max(np.abs(got - g @ f))) <= 1e-10

    # A chain of n generators has n + 1 wires; a single einsum call names
    # at most 52 indices, and evaluation once stopped there.
    def test_chain_at_the_einsum_index_limit_evaluates(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        env = env_with({"A": 2}, x=x)
        chain = seq(*[generator("x", [A], [A])] * 51)
        assert np.array_equal(evaluate(chain, env), x)

    def test_500_generator_chain_evaluates(self):
        rng = np.random.default_rng(3)
        env = ModelEnv.make({"A": 2})
        product = np.eye(2, dtype=complex)
        for i in range(500):
            m = rng.standard_normal((2, 2)) / np.sqrt(2)
            env.assign(f"x{i}", m)
            product = m @ product
        chain = seq(*[generator(f"x{i}", [A], [A]) for i in range(500)])
        start = time.perf_counter()
        got = evaluate(chain, env)
        assert time.perf_counter() - start < 1.0
        assert np.allclose(got, product, rtol=1e-12, atol=1e-12)

    def test_intermediate_past_the_limit_is_refused(self):
        # two states of 2**14 entries each: their product has 2**28
        env = env_with({"A": 2 ** 14}, s=np.ones((2 ** 14, 1)))
        pair = par(generator("s", [], [A]), generator("s", [], [A]))
        with pytest.raises(ResourceLimit, match="the limit is"):
            evaluate(pair, env)
        # the cost of the refused program can still be read
        assert contraction_cost(pair, env)[1] == 2 ** 28 > MAX_ENTRIES
        assert evaluate(generator("s", [], [A]), env).shape == (2 ** 14, 1)


class TestSnakes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_dual_satisfies_snakes(self, n):
        eta = np.eye(n, dtype=complex).reshape(n * n, 1)
        env = ModelEnv.make({"X": n})
        g = Gadget("dual", {"A": Atom("X"), "B": Atom("X")},
                   {"eta": eta, "eps": eta.conj().T}, env)
        report = check_suite(g, SUITES["dual"], tol=1e-12)
        assert report.passed
        assert report.worst() <= 1e-12


class TestMatricesEqual:
    def test_exact_equality(self):
        a = np.eye(3, dtype=complex)
        ok, residual = matrices_equal(a, a.copy())
        assert ok and residual == 0.0

    def test_relative_scale(self):
        a = np.full((2, 2), 1e6, dtype=complex)
        ok, _ = matrices_equal(a, a + 1e-5)
        assert ok  # residual is measured relative to the matrix scale

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            matrices_equal(np.eye(2), np.eye(3))

    def test_real_against_complex(self):
        ok, residual = matrices_equal(np.eye(2), np.eye(2) + 0.5j)
        assert not ok and residual == 0.5
        assert matrices_equal([[True]], [[False]]) == (False, 1.0)

    def test_scale_reads_negative_entries(self):
        a = np.array([[-5.0, 1.0]])
        ok, residual = matrices_equal(a, a + 4e-9)
        assert ok and residual == pytest.approx(4e-9)
        assert not matrices_equal(a, a + 6e-9)[0]

    @pytest.mark.parametrize("field", [float, complex])
    def test_inputs_untouched_within_one_temporary(self, field):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((256, 256))
        if field is complex:
            a = a + 1j * rng.standard_normal((256, 256))
        b = a + 1e-3
        a.flags.writeable = b.flags.writeable = False
        kept = a.copy(), b.copy()
        tracemalloc.start()
        try:
            ok, residual = matrices_equal(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok and residual == pytest.approx(1e-3)
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1])
        # |a - b| of complex data is a second, real temporary
        assert peak < (1.1 if field is float else 1.6) * a.nbytes


class TestSplitIdempotent:
    def test_non_idempotent_rejected(self):
        with pytest.raises(NotIdempotent):
            split_idempotent(np.array([[0.0, 1.0], [0.0, 0.0]]) + 0.5)

    # inf was split, and NaN passed the idempotency check (a NaN residual
    # compares False) to fail in NumPy's SVD
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(LdcError, match="finite"):
            split_idempotent(np.array([[bad, 0], [0, 1.0]]))

    def test_zero_rank(self):
        r, s = split_idempotent(np.zeros((3, 3)))
        assert r.shape == (0, 3) and s.shape == (3, 0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           data=st.data())
    def test_random_projector_factorization(self, n, seed, data):
        rank = data.draw(st.integers(min_value=0, max_value=n))
        rng = np.random.default_rng(seed)
        e = random_projector(rng, n, rank)
        r, s = split_idempotent(e, tol=1e-8)
        assert r.shape == (rank, n) and s.shape == (n, rank)
        assert float(np.max(np.abs(s @ r - e))) <= 1e-8 * max(
            1.0, float(np.max(np.abs(e))))
        if rank:
            assert float(np.max(np.abs(r @ s - np.eye(rank)))) <= 1e-8
