"""End-to-end acceptance gate.

One test class per headline guarantee: boxing validity, circuit
construction, rewrite soundness, the matrix kernel, idempotent splitting,
the three algebra examples, the qubit complementary system, the exponential
laws, the retract pipeline, and the metamorphic splitting lemmas.
Tolerances and runtime budgets are part of the contract and are asserted
explicitly.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ldckit.circuit import (dagger_box, generator, identity, isomorphic,
                            par, seq, tensor_elim, tensor_intro)
from ldckit.cli import main
from ldckit.errors import LdcError, SuiteFailure
from ldckit.exponential import (bang_matrix, build_exp,
                                comonad_coassoc_report, comonoid_residual,
                                induce_bang_monoid, retract_idempotent)
from ldckit.fixtures import load_gadget
from ldckit.gadget import Gadget, gadget_to_json
from ldckit.io import parse, serialize
from ldckit.model import ModelEnv, evaluate, split_idempotent
from ldckit.objects import Atom, Bot, Dagger, Par, Tensor, Top
from ldckit.render import render_dot
from ldckit.rewrite import expand_wire, normalize
from ldckit.structures import (complementary_from_idempotent,
                               split_binary_idempotent, split_linear_comonoid,
                               split_linear_monoid)
from ldckit.suites import SUITES, check_suite
from ldckit.validity import validate

from conftest import random_projector
import structures_oracle
from validity_oracle import validate as oracle_validate
from test_validity import assert_order_independent
from test_structures import (E_BAD, E_GOOD, bell, copy_comonoid,
                             pointwise_monoid)


def chain_document(n: int) -> str:
    """A circuit file holding a chain of n one-wire generators A -> A."""
    return json.dumps({
        "wires": [{"id": f"w{i}", "type": {"atom": "A"}}
                  for i in range(n + 1)],
        "nodes": [{"kind": "gen", "name": f"f{i}",
                   "ports": [f"w{i}", f"w{i + 1}"]} for i in range(n)],
        "inputs": ["w0"], "outputs": [f"w{n}"]})


def _package_env() -> dict:
    """The environment of a fresh interpreter that imports this ldckit."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _nested_boxes(levels: int):
    """A generator A -> A inside `levels` dagger boxes."""
    c = generator("f", [Atom("A")], [Atom("A")])
    for _ in range(levels):
        c = dagger_box(c)
    return c


class TestBoxingValidity:
    def test_distributors_decide_quickly(self, corpus):
        circuits = dict((name, c) for name, c, _ in corpus)
        t0 = time.perf_counter()
        good = validate(circuits["left-distributor"])
        t1 = time.perf_counter()
        bad = validate(circuits["reverse-distributor"])
        t2 = time.perf_counter()
        assert good.valid and good.stuck is None
        assert not bad.valid and bad.stuck is not None
        assert t1 - t0 < 0.1
        assert t2 - t1 < 0.1

    def test_corpus_is_large_enough_and_order_independent(self, corpus):
        assert len(corpus) >= 15
        names = [name for name, _, _ in corpus]
        # unit and thinning cases are represented
        assert {"top-unit-elim", "bot-unit-intro", "top-intro-elim"} \
            <= set(names)
        for name, circuit, expect in corpus:
            assert validate(circuit).valid is expect, name
            assert_order_independent(circuit, expect, range(20), name)

    def test_long_chain_parses_and_validates_within_a_second(self):
        doc = chain_document(2000)
        t0 = time.perf_counter()
        rep = validate(parse(doc))
        elapsed = time.perf_counter() - t0
        assert rep.valid and len(rep.trace) == 4 * 2000 + 1
        assert elapsed < 1.0

    def test_chain_trace_is_the_reference_trace(self):
        # The reference is cubic: about 0.8 s at 100 generators and 6 s at
        # 200 on a 2-core host.  Node names ("n10" < "n2") do not sort in
        # chain order, so the trace order is not the chain order either.
        c = parse(chain_document(100))
        assert validate(c).trace == oracle_validate(c).trace


class TestCircuitConstruction:
    def test_long_seq_builds_and_validates_within_a_second(self):
        # Folding seq pairwise re-copied and re-checked the whole prefix at
        # every step: 28 s for 1600 generators.
        A = Atom("A")
        gens = [generator(f"f{i}", [A], [A]) for i in range(2000)]
        t0 = time.perf_counter()
        c = seq(*gens)
        rep = validate(c)
        elapsed = time.perf_counter() - t0
        assert len(c.nodes) == 2000 and rep.valid
        assert elapsed < 1.0


class TestRewriteSoundness:
    def test_normalization_preserves_verdicts_and_shrinks(self, corpus):
        t0 = time.perf_counter()
        for name, circuit, _ in corpus:
            reduced = normalize(circuit)
            assert validate(circuit).valid == validate(reduced).valid, name
            assert len(reduced.nodes) <= len(circuit.nodes), name
            for w, t in circuit.wires.items():
                if isinstance(t, (Tensor, Par, Top, Bot)):
                    expanded = expand_wire(circuit, w)
                    assert len(expanded.nodes) == len(circuit.nodes) + 2
                    assert isomorphic(normalize(expanded), reduced), (name, w)
        assert time.perf_counter() - t0 < 1.0

    def test_expanded_chain_normalizes_within_a_second(self):
        # Rebuilding and rechecking the circuit per redex took 2.6 s for
        # 400 generators and grew quadratically.
        A, B = Atom("A"), Atom("B")
        gens = [generator(f"f{i}", [Tensor(A, B)], [Tensor(A, B)])
                for i in range(2000)]
        pair = seq(tensor_elim(A, B), tensor_intro(A, B))
        expanded = seq(*(part for g in gens for part in (pair, g)))
        assert len(expanded.nodes) == 6000
        t0 = time.perf_counter()
        reduced = normalize(expanded)
        elapsed = time.perf_counter() - t0
        assert isomorphic(reduced, seq(*gens))
        assert elapsed < 1.0

    def test_nested_dagger_boxes_normalize_within_budget(self, tmp_path):
        # `serialize` wrote each box interior as text and parsed it back at
        # every level: 1.8 s at 80 levels, and past 100 s at 300.  Its
        # indented output then grew quadratically, 9.1 MB in about 1 s at
        # 300 levels.  One line of compact JSON normalizes in about 20 ms.
        src, out = tmp_path / "nested.json", tmp_path / "out.json"
        src.write_bytes(serialize(_nested_boxes(300)))
        t0 = time.perf_counter()
        assert main(["normalize", str(src), "-o", str(out)]) == 0
        elapsed = time.perf_counter() - t0
        assert out.read_bytes() == src.read_bytes()
        assert elapsed < 0.25

    def test_nested_dagger_box_documents_grow_linearly(self):
        # indented, 150 levels wrote 2.3 MB and 300 levels 9.1 MB
        half, full = (len(serialize(_nested_boxes(k))) for k in (150, 300))
        assert full < 100_000
        assert full <= 2.2 * half

    def test_nested_dagger_boxes_round_trip_at_320_levels(self):
        # in a fresh interpreter `parse` reads 320 levels back, not 330, and
        # the writer refuses past 330; under pytest's deeper stack both
        # stop near 317
        script = ("from ldckit import Atom, dagger_box, generator, "
                  "isomorphic, parse, serialize\n"
                  "c = generator('f', [Atom('A')], [Atom('A')])\n"
                  "for _ in range(320):\n"
                  "    c = dagger_box(c)\n"
                  "assert isomorphic(parse(serialize(c)), c)\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True,
                             env=_package_env(), timeout=60)
        assert out.returncode == 0, out.stderr

    def test_type_nested_past_the_encoder_is_an_ldc_error(self):
        # the JSON encoder's RecursionError escaped `serialize`
        t = Atom("A")
        for _ in range(5000):
            t = Dagger(t)
        with pytest.raises(LdcError, match="nested too deeply"):
            serialize(identity([t]))


class TestRender:
    def test_nested_dagger_boxes_render_linearly(self):
        # each interior node was named by the path of box ids above it and
        # each interior line re-indented once per level: 0.67 MB at 150
        # levels, 2.96 MB at 300
        half, full = (render_dot(_nested_boxes(k)).decode()
                      for k in (150, 300))
        assert len(full) <= 2.2 * len(half)
        # per level a box node and the in0 and out0 of its interior
        names = re.findall(r'^ *("[^"]*") \[', full, re.MULTILINE)
        assert len(names) == len(set(names)) == 3 * 301

    def test_wide_identity_renders_within_budget(self):
        # each boundary wire was found by tuple.index: 1.0 s for 8000 wires
        c = identity([Atom("A")] * 8000)
        t0 = time.perf_counter()
        dot = render_dot(c)
        elapsed = time.perf_counter() - t0
        assert dot.count(b" -> ") == 8000
        assert elapsed < 0.25


class TestMatrixKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_snake_equations(self, n):
        eta = np.eye(n, dtype=complex).reshape(n * n, 1)
        env = ModelEnv.make({"X": n})
        g = Gadget("dual", {"A": Atom("X"), "B": Atom("X")},
                   {"eta": eta, "eps": eta.conj().T}, env)
        assert check_suite(g, SUITES["dual"], 1e-12).worst() <= 1e-12

    def test_evaluation_is_compositional(self):
        A, B, C = Atom("A"), Atom("B"), Atom("C")
        rng = np.random.default_rng(2024)
        for _ in range(100):
            na, nb, nc = (int(x) for x in rng.integers(1, 5, size=3))
            f = rng.standard_normal((nb, na)) \
                + 1j * rng.standard_normal((nb, na))
            g = rng.standard_normal((nc, nb)) \
                + 1j * rng.standard_normal((nc, nb))
            env = ModelEnv.make({"A": na, "B": nb, "C": nc},
                                generators={"f": f, "g": g})
            got = evaluate(seq(generator("f", [A], [B]),
                               generator("g", [B], [C])), env)
            assert float(np.max(np.abs(got - g @ f))) <= 1e-10

    def test_brickwork_evaluates_within_memory_budget(self):
        # twelve dense complex gates in brickwork on three wires of
        # dimension 8; the result is 512 x 512, 4.2 MB.  Copying both
        # operands of every step peaked at 12.1 MB
        atoms = [Atom(f"X{i}") for i in range(3)]
        env = ModelEnv.make({a.name: 8 for a in atoms})
        rng = np.random.default_rng(8)
        layers = []
        for k in range(12):
            i = k % 2
            env.assign(f"G{k}", rng.standard_normal((64, 64))
                       + 1j * rng.standard_normal((64, 64)))
            layers.append(par(identity(atoms[:i]),
                              generator(f"G{k}", atoms[i:i + 2],
                                        atoms[i:i + 2]),
                              identity(atoms[i + 2:])))
        c = seq(*layers)
        evaluate(c, env)   # compiled outside the measurement
        tracemalloc.start()
        try:
            evaluate(c, env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6


class TestIdempotentSplitting:
    def test_random_conjugated_projectors(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rank = int(rng.integers(0, n + 1))
            e = random_projector(rng, n, rank)
            r, s = split_idempotent(e, tol=1e-8)
            scale = max(1.0, float(np.max(np.abs(e))))
            assert float(np.max(np.abs(s @ r - e))) <= 1e-8 * scale
            if rank:
                assert float(np.max(np.abs(r @ s - np.eye(rank)))) <= 1e-8

    def test_binary_splittings_are_isomorphic(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            na, nb = (int(x) for x in rng.integers(2, 7, size=2))
            u = rng.standard_normal((nb, na)) \
                + 1j * rng.standard_normal((nb, na))
            v = np.linalg.pinv(u)
            env = ModelEnv.make({"A": na, "B": nb})
            g = Gadget("binary_idempotent",
                       {"A": Atom("A"), "B": Atom("B")},
                       {"u": u, "v": v}, env)
            res = split_binary_idempotent(g, tol=1e-8)
            alpha, beta = res["alpha"], res["beta"]
            k = res["dim_e"]
            assert float(np.max(np.abs(alpha @ beta - np.eye(k)))) <= 1e-8
            assert float(np.max(np.abs(beta @ alpha - np.eye(k)))) <= 1e-8


class TestAlgebraExamples:
    def test_verdict_matrix(self, weil_gadget, quad4_gadget,
                            quad4_flip_gadget):
        tol = 1e-9
        t0 = time.perf_counter()
        for g in (weil_gadget, quad4_gadget, quad4_flip_gadget):
            assert check_suite(g, SUITES["linear-monoid"], tol).passed
        for g in (weil_gadget, quad4_gadget):
            assert check_suite(g, SUITES["dagger-linear-monoid"],
                               tol).passed
            report = check_suite(g, SUITES["frobenius-coincidence"], tol)
            assert not report.passed
            assert report.worst() >= 1e3 * tol
        flip = check_suite(quad4_flip_gadget,
                           SUITES["dagger-linear-monoid"], tol)
        assert not flip.passed
        frob = check_suite(quad4_flip_gadget,
                           SUITES["frobenius-coincidence"], tol)
        assert not frob.passed and frob.worst() >= 1e3 * tol
        assert time.perf_counter() - t0 < 1.0


class TestComplementarySystem:
    def test_qubit_passes_at_tight_tolerance(self, qubit_gadget):
        comp = check_suite(qubit_gadget, SUITES["complementary"], 1e-12)
        hopf = check_suite(qubit_gadget, SUITES["hopf"], 1e-12)
        assert comp.passed and comp.worst() <= 1e-12
        assert hopf.passed and hopf.worst() <= 1e-12

    @pytest.mark.parametrize("role", ["m", "u", "d", "k",
                                      "eta_L", "eps_L", "eta_R", "eps_R",
                                      "tau_L", "gam_L", "tau_R", "gam_R"])
    def test_every_structure_map_is_load_bearing(self, qubit_gadget, role):
        mat = qubit_gadget.morphism(role).copy()
        mat[0, 0] += 1e-3
        perturbed = qubit_gadget.with_morphisms(**{role: mat})
        assert not all(
            check_suite(perturbed, SUITES[name], 1e-9).passed
            for name in ("complementary", "hopf", "linear-bialgebra"))


class TestExponentialLaws:
    def test_laws_at_degree_three(self):
        t0 = time.perf_counter()
        exp = build_exp(2, 3)
        assert exp.dim == 10 and exp.outer.dim == 286
        # comonoid laws hold exactly on integer matrices
        assert np.array_equal(exp.Delta, exp.Delta.real.astype(int))
        assert comonoid_residual(exp.Delta, exp.counit_e) == 0.0
        # comonad coassociativity on the degree window
        ok, worst, checked = comonad_coassoc_report(2, 3, tol=1e-9)
        assert ok and worst <= 1e-9 and checked > 0
        # dagger coherence between the comonad and monad sides
        env = ModelEnv.make({"bA": 10, "A": 2, "bbA": 286})
        g = Gadget("exp_coherence",
                   {"X": Atom("bA"), "Y": Atom("A"), "Z": Atom("bbA")},
                   {"Delta": exp.Delta, "counit": exp.counit_e,
                    "eps": exp.eps, "delta": exp.delta,
                    "nabla": exp.nabla, "unit": exp.unit_u,
                    "eta": exp.eta, "mu": exp.mu}, env)
        assert check_suite(g, SUITES["dagger-bang-coherence"], 1e-9).passed
        # functoriality over 50 random composable pairs
        rng = np.random.default_rng(5)
        basis = exp.basis
        for _ in range(50):
            f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = bang_matrix(h @ f, basis, basis)
            rhs = bang_matrix(h, basis, basis) @ bang_matrix(f, basis, basis)
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-10
        assert time.perf_counter() - t0 < 30.0

    @pytest.mark.parametrize("base, degree, outer_dim",
                             [(2, 4, 3876), (3, 3, 1771)])
    def test_duplication_builds_past_the_dense_lift(self, base, degree,
                                                    outer_dim):
        # solving the duplication as a lift on these outer bases takes
        # seconds and gigabytes; its closed form takes milliseconds
        t0 = time.perf_counter()
        exp = build_exp(base, degree)
        assert exp.delta.shape == (outer_dim, exp.dim)
        assert np.array_equal(exp.mu, exp.delta.conj().T)
        assert time.perf_counter() - t0 < 1.0

    def test_comonad_coassociativity_at_degree_5_within_budget(self):
        # built whole and then cut to the window, the product delta;!delta
        # took about 4 s here; built only on the window, about 0.25 s
        t0 = time.perf_counter()
        assert comonad_coassoc_report(2, 5) == (True, 0.0, 15477)
        assert time.perf_counter() - t0 < 1.0

    def test_warm_comonad_coassociativity_at_degree_5_within_budget(self):
        # a warm report reads the shape's tables and counts nothing: a
        # median of 0.11 ms measured on a shared 2-vCPU host, where a
        # recount of the window on every call took 1.3 ms
        comonad_coassoc_report(2, 5)
        times = []
        for _ in range(51):
            t0 = time.perf_counter()
            comonad_coassoc_report(2, 5)
            times.append(time.perf_counter() - t0)
        assert sorted(times)[25] < 0.5e-3

    def test_comonad_coassociativity_cold_at_3_5_within_budget(self):
        # the first call in a fresh interpreter builds the shape's tables:
        # 60-105 ms measured on a shared 2-vCPU host, where the dict
        # calculus they replace took 0.60-0.83 s
        script = ("import time\n"
                  "from ldckit import comonad_coassoc_report\n"
                  "t0 = time.perf_counter()\n"
                  "out = comonad_coassoc_report(3, 5)\n"
                  "print(time.perf_counter() - t0, out)\n")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True,
                             env=_package_env(), timeout=60)
        assert out.returncode == 0, out.stderr
        seconds, report = out.stdout.split(" ", 1)
        assert report.strip() == "(True, 0.0, 67406)"
        assert float(seconds) < 0.4


class TestRetractPipeline:
    @staticmethod
    def recovery_error(qubit_gadget, degree: int) -> float:
        """Retract the qubit onto its degree-d exponential, split the
        idempotent back, and return the worst deviation from the qubit."""
        result = retract_idempotent(qubit_gadget, degree=degree)
        eps, flat, sharp, eta = result["splitting"]
        # the section is exactly split by the dereliction
        assert np.array_equal(eps @ flat, np.eye(2))
        e_bang = result["e_bang"]
        assert np.array_equal(e_bang @ e_bang, e_bang)
        out = complementary_from_idempotent(
            result["gadget"], tol=1e-8, splitting=result["splitting"])
        assert out["conditions"].passed
        assert out["conditions"].worst() <= 1e-8
        assert out["complementary"].passed
        recovered = out["split"]
        return max(float(np.max(np.abs(recovered.morphism(role)
                                       - qubit_gadget.morphism(role))))
                   for role in recovered.morphisms
                   if role in qubit_gadget.morphisms)

    def test_exponential_retract_recovers_the_qubit(self, qubit_gadget):
        t0 = time.perf_counter()
        assert self.recovery_error(qubit_gadget, 3) <= 1e-8
        assert time.perf_counter() - t0 < 5.0

    def test_retract_at_degree_5_within_budget(self, qubit_gadget):
        t0 = time.perf_counter()
        assert self.recovery_error(qubit_gadget, 5) <= 1e-8
        assert time.perf_counter() - t0 < 5.0
        # memory on a second run: tracemalloc slows the first one down
        tracemalloc.start()
        try:
            self.recovery_error(qubit_gadget, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500e6

    # Z_5 at degree 4 asked the dense monoidal structure for 5.6 GiB, and
    # Z_6 at degree 3 for 2 GB
    @pytest.mark.parametrize("n, degree", [(5, 4), (6, 3)])
    def test_cyclic_retract_within_budget(self, n, degree):
        g = load_gadget(f"zn:{n}")

        def retract_error() -> float:
            eps, flat, _, _ = retract_idempotent(g, degree)["splitting"]
            return float(np.max(np.abs(eps @ flat - np.eye(n))))

        t0 = time.perf_counter()
        assert retract_error() <= 1e-8
        assert time.perf_counter() - t0 < 5.0
        tracemalloc.start()
        try:
            retract_error()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500e6

    def test_real_exponential_builds_within_memory_budget(self):
        # the induced roles are real, 3.0 MB in all; built in complex128
        # they took 6.0 MB and the build peaked at 18 MB
        g = load_gadget("zn:5")
        induce_bang_monoid(g, 3)
        tracemalloc.start()
        try:
            induce_bang_monoid(g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_real_exponential_suite_check_within_memory_budget(self):
        # the dimension-35 exponential of Z_4 is real, so its laws on
        # A (x) A -> A (x) A are contracted in float64: 35**4 entries of
        # 8 bytes each; in complex128 the check peaked at 144 MB
        g = induce_bang_monoid(load_gadget("zn:4"), 3)
        assert check_suite(g, SUITES["linear-bialgebra"]).passed
        tracemalloc.start()
        try:
            report = check_suite(g, SUITES["linear-bialgebra"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.worst() == 0.0
        assert peak < 100e6

    def test_saved_exponential_reloads_within_memory_budget(self, tmp_path):
        # 376 k entries; written as one JSON pair of floats each, saving
        # peaked at 55 MiB and loading at 67 MiB, for a 4.5 MB file
        g = induce_bang_monoid(load_gadget("zn:5"), 3)
        path = tmp_path / "exp.json"
        tracemalloc.start()
        try:
            path.write_text(json.dumps(gadget_to_json(g)))
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            reloaded = load_gadget(str(path))
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 30e6 and load_peak < 30e6
        assert all(np.array_equal(reloaded.morphism(role), m)
                   for role, m in g.morphisms.items())
        assert check_suite(reloaded, SUITES["linear-bialgebra"]).passed

    def test_exp_demo_past_the_contraction_limit_exits_cleanly(self):
        # the suite checks on the dimension-126 exponential need a
        # contraction intermediate of 126**4 entries
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "ldckit.cli", "exp", "demo",
             "--gadget", "zn:5", "--degree", "4"],
            capture_output=True, text=True, env=_package_env(), timeout=60)
        assert time.perf_counter() - t0 < 30.0
        assert out.returncode == 1
        assert out.stderr.startswith("error:")
        assert "the limit is" in out.stderr
        assert "Traceback" not in out.stderr


class TestSplittingLemmas:
    """For each splitting lemma, a generated passing instance and a
    generated counterexample: the compatibility verdict and the verdict on
    the split structure must agree in both directions."""

    def test_dual_lemma(self):
        env = ModelEnv.make({"X": 3})
        X = Atom("X")

        def split_dual(e_a, e_b):
            r, s = split_idempotent(e_a)
            r2, s2 = split_idempotent(e_b)
            senv = ModelEnv.make({"E": r.shape[0], "E2": r2.shape[0]})
            return Gadget("dual", {"A": Atom("E"), "B": Atom("E2")},
                          {"eta": np.kron(r, r2) @ bell(3),
                           "eps": bell(3).conj().T @ np.kron(s2, s)}, senv)

        e_small = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for e_a, e_b, expect in [(E_GOOD, E_GOOD, True),
                                 (E_GOOD, e_small, False)]:
            probe = Gadget("dual_idempotent", {"A": X, "B": X},
                           {"eta": bell(3), "eps": bell(3).conj().T,
                            "e_a": e_a, "e_b": e_b}, env)
            compat = check_suite(probe, SUITES["dual-sectional"], 1e-9)
            split = check_suite(split_dual(e_a, e_b), SUITES["dual"], 1e-9)
            assert compat.passed is expect
            assert split.passed is expect

    def test_monoid_lemma(self):
        g = pointwise_monoid()
        split = split_linear_monoid(g, E_GOOD, E_GOOD)
        assert check_suite(split, SUITES["linear-monoid"], 1e-9).passed
        with pytest.raises(SuiteFailure):
            split_linear_monoid(g, E_BAD, E_BAD)
        forced = structures_oracle.split_linear_monoid(g, E_BAD, E_BAD,
                                                       check=False)
        assert not check_suite(forced, SUITES["linear-monoid"], 1e-9).passed

    def test_comonoid_lemma(self):
        g = copy_comonoid()
        split = split_linear_comonoid(g, E_GOOD, E_GOOD)
        assert check_suite(split, SUITES["linear-comonoid"], 1e-9).passed
        with pytest.raises(SuiteFailure):
            split_linear_comonoid(g, E_BAD, E_BAD)
        forced = structures_oracle.split_linear_comonoid(g, E_BAD, E_BAD,
                                                         check=False)
        assert not check_suite(forced, SUITES["linear-comonoid"],
                               1e-9).passed

    def test_bialgebra_lemma(self, qubit_gadget):
        # passing instance: the canonical retract of the degree-2
        # exponential splits back to a complementary system
        result = retract_idempotent(qubit_gadget, degree=2)
        out = complementary_from_idempotent(
            result["gadget"], tol=1e-9, splitting=result["splitting"])
        assert out["conditions"].passed and out["complementary"].passed

        # counterexample: phase-twisted comonoid duals keep the linear
        # bialgebra intact but break complementarity; with the identity
        # idempotent the two reports must fail residual for residual
        phase = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        cup = np.kron(eye, phase) @ qubit_gadget.morphism("tau_L")
        cap = qubit_gadget.morphism("gam_L") @ np.kron(phase, eye)
        twisted = qubit_gadget.with_morphisms(
            tau_L=cup, tau_R=cup.copy(), gam_L=cap, gam_R=cap.copy(),
            ub=eye, vb=eye)
        assert check_suite(twisted, SUITES["linear-bialgebra"], 1e-9).passed
        bad = complementary_from_idempotent(twisted, tol=1e-9)
        assert not bad["conditions"].passed
        assert not bad["complementary"].passed
        assert list(bad["conditions"].residuals.values()) \
            == list(bad["complementary"].residuals.values())
