"""One multiset enumeration per basis shape (number of letters, degree)
serves every `MultisetBasis` of that shape, the peel tables of
`bang_matrix`, Delta's nonzeros, the monoidal index and the couniversal
lift.  Each is tested against its copy in tests/exp_oracle.py, as it was
when it enumerated its own multisets, and the enumeration and the tables
read over it are one shared, read-only `_Shape` made in `ldckit.multiset`
alone."""
from __future__ import annotations

import ast
import dataclasses
import functools
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from ldckit import exponential, model, multiset
from ldckit.cli import main
from ldckit.errors import LdcError, LiftFailure, NotAComonoid, ShapeMismatch
from ldckit.exponential import (build_exp, comonad_coassoc_report,
                                comult_matrix, lift_flat, lift_sharp)
from ldckit.fixtures import load_gadget
from ldckit.multiset import MultisetBasis, _multisets

import exp_oracle

ROOT = Path(__file__).resolve().parent.parent
SHAPES = [(k, d) for k in range(5) for d in range(6)]


def _basis(letters: int, degree: int) -> MultisetBasis:
    return MultisetBasis([str(i) for i in range(letters)], degree)


def _copy_comonoid(n: int, rng=None) -> tuple[np.ndarray, np.ndarray]:
    """The copy comonoid of zn:<n>, under a random real orthogonal change
    of basis when an rng is given: cocommutative either way."""
    g = load_gadget(f"zn:{n}")
    d, k = g.morphism("d"), g.morphism("k")
    if rng is None:
        return d, k
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    return np.kron(q, q) @ d @ q.T, k @ q.T


def _outcome(fn):
    """(error type, message with its numbers taken out, the numbers)."""
    try:
        fn()
    except LdcError as e:
        numbers = re.findall(r"\d\.\d+e[+-]\d+", str(e))
        return type(e), re.sub(r"\d\.\d+e[+-]\d+", "#", str(e)), numbers
    return None


LIFT_CASES = [(n, letters, degree) for n in (2, 3, 5)
              for letters in range(4) for degree in range(1, 5)]


class TestLiftFlat:
    """The lift solved with one gather per grade against the per-multiset
    loop it replaces."""

    @pytest.mark.parametrize("n, letters, degree", LIFT_CASES)
    def test_rotated_copy_comonoid(self, n, letters, degree):
        rng = np.random.default_rng([n, letters, degree])
        comonoid = _copy_comonoid(n, rng)
        f = rng.standard_normal((letters, n)) \
            + 1j * rng.standard_normal((letters, n))
        target = _basis(letters, degree)
        got = lift_flat(comonoid, f, target)
        want = exp_oracle.lift_flat(comonoid, f, target)
        scale = float(np.max(np.abs(want), initial=1.0))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @pytest.mark.parametrize("n, letters, degree", LIFT_CASES)
    def test_zero_one_data_bit_for_bit(self, n, letters, degree):
        rng = np.random.default_rng([7, n, letters, degree])
        comonoid = _copy_comonoid(n)
        f = rng.integers(0, 2, (letters, n)).astype(float)
        target = _basis(letters, degree)
        got = lift_flat(comonoid, f, target)
        want = exp_oracle.lift_flat(comonoid, f, target)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("letters, degree", [(1, 2), (1, 4), (2, 2),
                                                 (2, 3), (3, 2), (3, 3)])
    def test_non_cocommutative_comonoid(self, letters, degree):
        # the comonoid dual to the 2 x 2 matrices: Delta(e_ij) is the sum
        # of e_ik (x) e_kj.  Over two letters or more, peeling different
        # elements first disagrees; over one, the lift exists.
        d = np.zeros((16, 4))
        for i, j, k in itertools.product(range(2), repeat=3):
            d[(2 * i + k) * 4 + 2 * k + j, 2 * i + j] = 1
        e = np.array([[1.0, 0.0, 0.0, 1.0]])
        f = np.random.default_rng([letters, degree]).standard_normal(
            (letters, 4))
        target = _basis(letters, degree)
        if letters == 1:
            want = exp_oracle.lift_flat((d, e), f, target)
            got = lift_flat((d, e), f, target)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            return
        got = _outcome(lambda: lift_flat((d, e), f, target))
        want = _outcome(lambda: exp_oracle.lift_flat((d, e), f, target))
        assert got[:2] == want[:2] and want[0] is LiftFailure
        np.testing.assert_allclose(np.array(got[2], float),
                                   np.array(want[2], float), rtol=1e-3)

    @pytest.mark.parametrize("case", ["not-a-comonoid", "comonoid-shape",
                                      "f-shape"])
    def test_refusals(self, case):
        d, k = _copy_comonoid(2)
        f = np.eye(2)
        if case == "not-a-comonoid":
            d, k = np.ones((4, 2)), np.ones((1, 2))
        elif case == "comonoid-shape":
            k = np.ones((1, 3))
        else:
            f = np.eye(3, 2)
        target = _basis(2, 2)
        got = _outcome(lambda: lift_flat((d, k), f, target))
        assert got == _outcome(
            lambda: exp_oracle.lift_flat((d, k), f, target))
        assert got[0] is {"not-a-comonoid": NotAComonoid}.get(
            case, ShapeMismatch)

    def test_degree_zero_target_is_refused(self):
        # the lift wrote the singleton rows through basis.index[(0,)], which
        # a degree-0 basis lacks: KeyError: (0,)
        g = load_gadget("qubit-zx")
        target = _basis(2, 0)
        with pytest.raises(LdcError, match="degree at least 1, got 0"):
            lift_flat((g.morphism("d"), g.morphism("k")), np.eye(2), target)
        with pytest.raises(LdcError, match="degree at least 1, got 0"):
            lift_sharp((g.morphism("m"), g.morphism("u")), np.eye(2), target)


class TestTablesAgainstTheParent:
    @pytest.mark.parametrize("size, degree", SHAPES)
    def test_grades(self, size, degree):
        got = _multisets(size, degree).grades
        want = exp_oracle._grades(size, degree)
        assert len(got) == len(want) == degree
        for g, w in zip(got, want):
            for field in dataclasses.fields(g):
                a, b = getattr(g, field.name), getattr(w, field.name)
                assert np.array_equal(a, b) and np.asarray(a).dtype \
                    == np.asarray(b).dtype, field.name

    @pytest.mark.parametrize("size, degree", SHAPES)
    def test_window_unions_hold_the_same_triples(self, size, degree):
        got = list(zip(*(x.tolist()
                         for x in _multisets(size, degree).splits)))
        want = exp_oracle._window_unions(_basis(size, degree))
        assert len(set(got)) == len(got)
        assert set(got) == set(zip(*(x.tolist() for x in want)))

    @pytest.mark.parametrize("size, degree", SHAPES)
    def test_comult_matrix(self, size, degree):
        basis = _basis(size, degree)
        n = basis.dim
        want = np.zeros((n * n, n))
        i1, i2, union = exp_oracle._window_unions(basis)
        want[i1 * n + i2, union] = 1
        got = comult_matrix(basis)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSharedEnumeration:
    def test_bases_of_one_shape_share_a_read_only_enumeration(self):
        basis = MultisetBasis(["0", "1"], 2)
        other = MultisetBasis(["x", "y"], 2)
        assert other.elements is basis.elements
        assert other.index is basis.index
        assert basis.elements == ((), (0,), (1,), (0, 0), (0, 1), (1, 1))
        with pytest.raises(AttributeError):
            basis.elements.append((0, 0, 0))
        with pytest.raises(TypeError):
            basis.elements[0] = (1,)
        with pytest.raises(TypeError):
            basis.index[(0, 0, 0)] = 6
        assert len(other.elements) == len(other.index) == other.dim == 6

    def test_bases_of_one_shape_share_one_shape_and_its_tables(self):
        basis = MultisetBasis(["0", "1"], 3)
        other = MultisetBasis(["x", "y"], 3)
        assert other.shape is basis.shape is _multisets(2, 3)
        assert (basis.shape.letters, basis.shape.degree) == (2, 3)
        for table in ("degrees", "grades", "splits", "parts", "law"):
            assert getattr(other.shape, table) \
                is getattr(basis.shape, table), table
        assert basis.shape.degrees.tolist() == [0, 1, 1, 2, 2, 2,
                                                3, 3, 3, 3]
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.shape.elements = ()
        arrays = [basis.shape.degrees, *basis.shape.splits, *(
            getattr(g, f.name) for g in basis.shape.grades
            for f in dataclasses.fields(g) if f.name not in ("start", "stop")),
            basis.shape.parts.union, *(
                getattr(basis.shape.law, f.name)
                for f in dataclasses.fields(basis.shape.law))]
        assert all(not a.flags.writeable for a in arrays)

    def test_only_multiset_enumerates_multisets(self):
        calls = {path.name: path.read_text().count(
                     "combinations_with_replacement")
                 for path in sorted((ROOT / "src" / "ldckit").glob("*.py"))}
        assert {name: n for name, n in calls.items() if n} \
            == {"multiset.py": 1}

    def test_three_caches_and_no_other(self):
        # the tables of one basis shape are the `_Shape`'s own; a second
        # cache of them, or of anything else, is a new entry here
        named, mentions = set(), 0
        for path in sorted((ROOT / "src" / "ldckit").glob("*.py")):
            text = path.read_text()
            mentions += text.count("lru_cache")
            named |= {(path.name, node.name)
                      for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.FunctionDef)
                      for dec in node.decorator_list
                      if "lru_cache" in ast.unparse(dec)}
        assert named == {("multiset.py", "_enumerated"),
                         ("model.py", "_exponential_shape"),
                         ("exponential.py", "_monoidal")}
        assert mentions == 3

    def test_the_shape_tables_and_no_other(self):
        # every table of a basis shape is a cached property of `_Shape`; a
        # new one is a new entry here, as a new cache is above
        tables = {name for name, value in vars(multiset._Shape).items()
                  if isinstance(value, functools.cached_property)}
        assert tables == {"degrees", "grades", "splits", "parts", "law"}

    def test_a_second_demo_builds_no_table_again(self, capsys):
        argv = ["exp", "demo", "--gadget", "qubit-zx", "--degree", "2"]
        caches = (multiset._enumerated, model._exponential_shape,
                  exponential._monoidal)
        assert main(argv) == 0
        misses = [cache.cache_info().misses for cache in caches]
        # the base's shape, the product basis's for the monoidal index,
        # and the unit's, which the lifted cups read
        shapes = [_multisets(n, 2) for n in (2, 4, 1)]
        tables = [[vars(shape).get(t) for t in ("degrees", "grades",
                                                "splits")]
                  for shape in shapes]
        assert all(t is not None for t in tables[0])
        assert main(argv) == 0
        assert [cache.cache_info().misses for cache in caches] == misses
        assert all(_multisets(n, 2) is shape
                   for n, shape in zip((2, 4, 1), shapes))
        for shape, before in zip(shapes, tables):
            for table, got in zip(("degrees", "grades", "splits"), before):
                assert vars(shape).get(table) is got, table
        capsys.readouterr()


class TestNegativeBase:
    """A negative base size read as an empty base: build_exp(-2, 2) had
    dimension 1 and comonad_coassoc_report(-1, 2) returned
    (True, 0.0, 8)."""

    def test_build_exp(self):
        with pytest.raises(LdcError, match="nonnegative number of "
                                           "elements, got -2"):
            build_exp(-2, 2)

    def test_comonad_coassoc_report(self):
        with pytest.raises(LdcError, match="nonnegative number of "
                                           "elements, got -1"):
            comonad_coassoc_report(-1, 2)

    def test_sizes_and_labels_as_before(self):
        for base in (0, 2, ["a", "b"]):
            exp = build_exp(base, 2)
            want = _basis(len(base) if isinstance(base, list) else base, 2)
            assert exp.basis.elements == want.elements
