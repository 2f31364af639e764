"""The field of each matrix is decided where it enters.  A `Gadget` stores a
role as float64 exactly when its imaginary part is all zero; the built-in,
`zn:n`, induced and retract gadgets are real, but for the multiplication of
quad4 and quad4-flip; and the exponential's maps stay real on real input,
with the values of the complex references in `exp_oracle`."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.exponential import (_lifted_cap, _lifted_cup, bang_matrix,
                                build_exp, induce_bang_monoid, lift_flat,
                                retract_idempotent)
from ldckit.fixtures import BUILTIN, fixture_names, load_gadget
from ldckit.gadget import Gadget
from ldckit import model
from ldckit.model import ModelEnv, in_field
from ldckit.multiset import MultisetBasis
from ldckit.suites import suite_env

import exp_oracle

SUBNORMAL = 2.5e-310
entries = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, SUBNORMAL, 1.0]))
zeros = st.sampled_from([0.0, -0.0])

# the roles that hold +-i
COMPLEX_ROLES = {("quad4", "m"), ("quad4-flip", "m")}


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@st.composite
def complex_matrices(draw):
    """A complex128 matrix of up to 4 x 4 entries whose imaginary parts are
    all signed zeros, or drawn like its real parts."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = rows * cols
    m = np.empty(n, dtype=complex)
    m.real = draw(st.lists(entries, min_size=n, max_size=n))
    imag = zeros if draw(st.booleans()) else entries
    m.imag = draw(st.lists(imag, min_size=n, max_size=n))
    return m.reshape(rows, cols)


class TestGadgetNarrows:
    @settings(max_examples=200, deadline=None)
    @given(m=complex_matrices())
    def test_role_is_real_exactly_when_its_imaginary_part_is_zero(self, m):
        real = not np.count_nonzero(m.imag)
        g = Gadget("probe", {}, {"f": m}, ModelEnv())
        for got in (g.morphism("f"),
                    g.with_morphisms(h=m).morphism("h"),
                    Gadget("probe", {}, {"f": m.real}, ModelEnv())
                    .with_morphisms(f=m).morphism("f")):
            assert got.dtype == (np.float64 if real else np.complex128)
            assert got.shape == m.shape
            assert np.array_equal(bits(got.real), bits(m.real))
            if not real:
                assert np.array_equal(bits(got.imag), bits(m.imag))

    def test_integer_and_list_roles_are_real(self):
        g = Gadget("probe", {}, {"i": np.eye(2, dtype=int), "l": [[1, 2]],
                                 "c": [[1 + 0j, 2j]]}, ModelEnv())
        assert g.morphism("i").dtype == g.morphism("l").dtype == np.float64
        assert g.morphism("c").dtype == np.complex128


def test_suite_env_binds_the_roles_as_stored(monkeypatch):
    """A gadget's roles were fielded when it was built, so the suites' env
    binds the very arrays and fields only the derived generators."""
    g = load_gadget("quad4")
    fielded = []
    monkeypatch.setattr(model, "in_field",
                        lambda m: fielded.append(m) or in_field(m))
    env = suite_env(g, {"m", "m_dag", "alpha_inv"})
    assert set(env.generators) == {"m", "m_dag", "alpha", "alpha_inv"}
    assert len(fielded) == 2
    for role in ("m", "alpha"):
        assert env.generators[role] is g.morphism(role)
    assert np.array_equal(env.generators["m_dag"], g.morphism("m").conj().T)
    assert env.generators["m_dag"].dtype == np.complex128
    assert env.generators["alpha_inv"].dtype == np.float64


def _assert_real(g: Gadget, complex_roles=()) -> None:
    for role, m in g.morphisms.items():
        want = np.complex128 if role in complex_roles else np.float64
        assert m.dtype == want, role


class TestGadgetsAreReal:
    @pytest.mark.parametrize("name", fixture_names())
    def test_builtin(self, name):
        complex_roles = {r for n, r in COMPLEX_ROLES if n == name}
        _assert_real(BUILTIN[name](), complex_roles)
        _assert_real(load_gadget(name), complex_roles)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cyclic(self, n):
        _assert_real(load_gadget(f"zn:{n}"))

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "weil", "quad4"])
    def test_induced(self, name):
        g = induce_bang_monoid(load_gadget(name), 2)
        _assert_real(g, {"m"} if name == "quad4" else ())

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_retract(self, name, degree):
        result = retract_idempotent(load_gadget(name), degree)
        _assert_real(result["gadget"])
        for m in (result["e_bang"], result["e_whim"], *result["splitting"]):
            assert m.dtype == np.float64


real_entries = st.floats(min_value=-2, max_value=2, allow_nan=False)


@st.composite
def real_maps_and_bases(draw):
    """A random real f: A -> B with small bases of their own degree
    bounds."""
    na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = draw(st.lists(real_entries, min_size=na * nb,
                           max_size=na * nb))
    f = np.array(values).reshape(nb, na)
    return (f, MultisetBasis([str(i) for i in range(na)],
                             draw(st.integers(0, 4))),
            MultisetBasis([str(i) for i in range(nb)],
                          draw(st.integers(0, 4))))


class TestExponentialStaysReal:
    @settings(max_examples=100, deadline=None)
    @given(case=real_maps_and_bases())
    def test_bang_matrix(self, case):
        f, basis_a, basis_b = case
        got = bang_matrix(f, basis_a, basis_b)
        assert got.dtype == np.float64
        # bit for bit what the complex computation gives
        widened = bang_matrix(f.astype(complex), basis_a, basis_b)
        assert np.array_equal(got, widened)
        want = exp_oracle.bang_matrix(f, basis_a, basis_b)
        assert want.dtype == np.complex128
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @pytest.mark.parametrize("base, degree",
                             [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)
                              if (n, d) != (3, 3)])
    def test_lift_flat(self, base, degree):
        exp = build_exp(base, degree, with_duplication=False)
        outer = MultisetBasis(exp.basis.labels(), degree)
        got = lift_flat((exp.Delta, exp.counit_e), np.eye(exp.dim), outer)
        assert got.dtype == np.float64
        want = exp_oracle.delta(base, degree)
        assert want.dtype == np.complex128 and np.array_equal(got, want)

    # monoidal_structure's field is asserted by test_exponential's
    # test_monoidal_index_is_the_dense_matrix
    @pytest.mark.parametrize("base_a, base_b, degree",
                             [(1, 2, 3), (2, 2, 2), (2, 3, 2), (3, 3, 1)])
    def test_lifted_duals(self, base_a, base_b, degree):
        exp_a = build_exp(base_a, degree, with_duplication=False)
        exp_b = build_exp(base_b, degree, with_duplication=False)
        rng = np.random.default_rng([base_a, base_b, degree])
        state = rng.standard_normal((base_a * base_b, 1))
        for got, want in (
                (_lifted_cup(state, exp_a.basis, exp_b.basis),
                 exp_oracle.dense_lifted_cup(state, exp_a, exp_b)),
                (_lifted_cap(state.T, exp_a.basis, exp_b.basis),
                 exp_oracle.dense_lifted_cap(state.T, exp_a, exp_b))):
            assert got.dtype == np.float64 and want.dtype == np.complex128
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
