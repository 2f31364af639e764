"""Command-line interface contract: exit codes, outputs, report files."""
from __future__ import annotations

import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import dagger_box, generator, identity, par, seq
from ldckit.cli import build_parser, main
from ldckit.errors import LdcError
from ldckit.exponential import induce_bang_monoid, retract_idempotent
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.gadget import gadget_from_json, gadget_to_json
from ldckit.io import serialize
from ldckit.objects import Atom, Bot, Par, Tensor, Top
from ldckit.rewrite import expand_wire

from io_oracle import gadget_to_pair_json
from test_validity import circuits

ROOT = Path(__file__).resolve().parent.parent
VALID = ROOT / "fixtures" / "left-distributor.json"
INVALID = ROOT / "fixtures" / "reverse-distributor.json"


@pytest.fixture
def induced_doc(tmp_path):
    """A saved degree-2 exponential gadget, which states its degree."""
    induced = induce_bang_monoid(load_gadget("qubit-zx"), 2)
    path = tmp_path / "induced.json"
    path.write_text(json.dumps(gadget_to_json(induced)))
    return path


class TestValidate:
    def test_valid_circuit_exits_zero(self, capsys):
        assert main(["validate", str(VALID)]) == 0
        assert capsys.readouterr().out.strip().endswith("valid")

    def test_invalid_circuit_exits_two(self, capsys):
        assert main(["validate", str(INVALID)]) == 2
        assert capsys.readouterr().out.strip().endswith("invalid")

    def test_trace_is_json_lines(self, capsys):
        assert main(["validate", "--trace", str(VALID)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "valid"
        steps = [json.loads(line) for line in lines[:-1]]
        assert all("rule" in step for step in steps)

    def test_missing_file_exits_one(self, capsys):
        assert main(["validate", "/nonexistent/circuit.json"]) == 1

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 1

    @pytest.mark.parametrize("patch", [{"wires": 5}, {"inputs": [[1]]}])
    def test_malformed_document_exits_one(self, tmp_path, capsys, patch):
        doc = json.loads(VALID.read_text()) | patch
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestNormalize:
    def test_writes_reduced_circuit(self, tmp_path, capsys):
        src = ROOT / "fixtures" / "tensor-roundtrip.json"
        out = tmp_path / "reduced.json"
        assert main(["normalize", str(src), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        before = json.loads(src.read_text())
        assert len(doc["nodes"]) < len(before["nodes"])


class TestRender:
    def test_emits_dot(self, capsys):
        assert main(["render", str(VALID)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_a_circuit_without_boxes(self, capsys):
        assert main(["render", str(ROOT / "fixtures" /
                                   "top-unit-elim.json")]) == 0
        assert capsys.readouterr().out == """\
digraph circuit {
  rankdir=TB;
  "in0" [shape=plaintext, label="in 0"];
  "in1" [shape=plaintext, label="in 1"];
  "out0" [shape=plaintext, label="out 0"];
  "n0" [shape=circle, label="T"];
  "in0" -> "n0" [label="T"];
  "in1" -> "out0" [label="A"];
  "n0" -> "in1" [style=dotted, arrowhead=none];
}
"""

    def test_nested_boxes_are_prefixed_and_indented_once(self, tmp_path,
                                                        capsys):
        # interior names were the path of box ids above them ("n0.n0.n1"),
        # and each interior line was indented once more per level
        A, B = Atom("A"), Atom("B")
        inner = seq(generator("f", [A], [B]), generator("g", [B], [A]))
        c = dagger_box(par(dagger_box(inner), identity([B])))
        path = tmp_path / "boxes.json"
        path.write_bytes(serialize(c))
        assert main(["render", str(path)]) == 0
        assert capsys.readouterr().out == """\
digraph circuit {
  rankdir=TB;
  "in0" [shape=plaintext, label="in 0"];
  "in1" [shape=plaintext, label="in 1"];
  "out0" [shape=plaintext, label="out 0"];
  "out1" [shape=plaintext, label="out 1"];
  subgraph "cluster_n0" {
    label="dagger";
    "b0.in0" [shape=plaintext, label="in 0"];
    "b0.in1" [shape=plaintext, label="in 1"];
    "b0.out0" [shape=plaintext, label="out 0"];
    "b0.out1" [shape=plaintext, label="out 1"];
    subgraph "cluster_b0.n0" {
    label="dagger";
    "b1.in0" [shape=plaintext, label="in 0"];
    "b1.out0" [shape=plaintext, label="out 0"];
    "b1.n0" [shape=circle, label="f"];
    "b1.n1" [shape=circle, label="g"];
    "b1.in0" -> "b1.n0" [label="A"];
    "b1.n0" -> "b1.n1" [label="B"];
    "b1.n1" -> "b1.out0" [label="A"];
    }
    "b0.n0" [shape=box, label="dagger box"];
    "b0.in0" -> "b0.n0" [label="A^"];
    "b0.n0" -> "b0.out0" [label="A^"];
    "b0.in1" -> "b0.out1" [label="B"];
  }
  "n0" [shape=box, label="dagger box"];
  "in0" -> "n0" [label="B^"];
  "in1" -> "n0" [label="A"];
  "n0" -> "out0" [label="B^"];
  "n0" -> "out1" [label="A"];
}
"""

    def test_unknown_format_exits_one(self, capsys):
        assert main(["render", "--format", "svg", str(VALID)]) == 1

    def test_format_is_a_parser_choice(self, capsys):
        assert main(["render", "--format", "svg", str(VALID)]) == 1
        assert "argument --format: invalid choice: 'svg'" \
            in capsys.readouterr().err


def _matrix_m(**fields) -> dict:
    """A gadget patch whose only morphism is a 2 x 4 matrix m with some
    fields replaced."""
    return {"morphisms": {"m": {"rows": 2, "cols": 4,
                                "data": [[0, 0]] * 8} | fields}}


class TestCheck:
    def test_passing_suite_exits_zero(self, capsys):
        assert main(["check", "--suite", "complementary",
                     "--gadget", "qubit-zx"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("pass")
        assert "comp.1-left" in out

    def test_failing_suite_exits_two(self, capsys):
        assert main(["check", "--suite", "frobenius-coincidence",
                     "--gadget", "weil"]) == 2
        assert capsys.readouterr().out.strip().endswith("fail")

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["check", "--suite", "no-such-suite",
                     "--gadget", "weil"]) == 1

    def test_unknown_gadget_exits_one(self, capsys):
        assert main(["check", "--suite", "dual",
                     "--gadget", "no-such-gadget"]) == 1

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["check", "--suite", "linear-monoid",
                     "--gadget", "quad4", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["suite"] == "linear-monoid"
        assert doc["pass"] is True
        assert {e["label"] for e in doc["equations"]} \
            >= {"assoc", "unit-left", "unit-right"}

    @pytest.mark.parametrize("patch", [
        {"atoms": [{"dim": 2}]},
        {"atoms": {"Q": 2}},
        {"atoms": {"Q": {"dim": "two"}}},
        {"atoms": {"Q": {"dim": 2.5}}},
        {"atoms": {"Q": {"dim": 0}}},
        {"atoms": {"Q": {"dim": True}}},
        {"objects": ["A"]},
        {"morphisms": [1]},
        {"degree": [1]},
        {"atoms": {"Q": {"dim": 2, "basis": 5}}},
        {"degree": 2.5},
        {"degree": "2"},
        _matrix_m(data=5),
        _matrix_m(data=[[1]] * 8),
        _matrix_m(data=[["a", "b"]] * 8),
        _matrix_m(rows=-2, cols=-4),
        _matrix_m(rows=2.0),
        {"degree": -1},
        {"gradings": {"A": [0, 1, 1, 2], "B": [0, 1]}},
    ])
    def test_malformed_gadget_exits_one(self, tmp_path, capsys, patch):
        doc = json.loads(QUBIT_DOC) | patch
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", "--suite", "complementary",
                     "--gadget", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_saved_induced_gadget_keeps_its_degree(self, induced_doc,
                                                   capsys):
        assert main(["check", "--suite", "linear-bialgebra",
                     "--gadget", str(induced_doc)]) == 0
        assert capsys.readouterr().out.strip().endswith("pass")

    @pytest.mark.parametrize("cmd", [["check", "--suite", "linear-bialgebra"],
                                     ["split", "--kind", "bialgebra"]])
    def test_degree_is_not_an_option(self, induced_doc, capsys, cmd):
        # a gadget over an exponential states its degree, and on any other
        # the bound --degree set was read by no check
        for gadget in (str(induced_doc), "qubit-zx"):
            assert main(cmd + ["--gadget", gadget, "--degree", "2"]) == 1
            err = capsys.readouterr().err
            assert "unrecognized arguments: --degree 2" in err

    def test_a_document_states_its_degree(self):
        qubit = load_gadget("qubit-zx")
        doc = gadget_to_json(qubit)
        # a gadget with no exponential object writes no degree, and reads
        # one where it is given
        assert "degree" not in doc
        assert gadget_from_json(doc).env == qubit.env
        assert gadget_from_json(doc | {"degree": 2}).env.degree == 2
        assert gadget_from_json(doc | {"degree": 0}).env.degree == 0
        induced = gadget_to_json(induce_bang_monoid(qubit, 2))
        assert induced["degree"] == 2
        assert induced["objects"]["A"] == {"bang": {"atom": "Q"}}
        assert gadget_from_json(induced).env.degree == 2


class TestSplit:
    def test_binary_split_reports_rank(self, tmp_path, capsys):
        # a gadget whose u, v roles form a binary idempotent
        import numpy as np
        from ldckit.fixtures import load_gadget
        from ldckit.gadget import Gadget, gadget_to_json
        qz = load_gadget("qubit-zx")
        e = qz.morphism("u") @ qz.morphism("k")
        g = Gadget("binary_idempotent", dict(qz.objects),
                   {"u": e, "v": e}, qz.env)
        path = tmp_path / "binary.json"
        path.write_text(json.dumps(gadget_to_json(g)))
        assert main(["split", "--gadget", str(path), "--kind", "binary"]) == 0
        assert "rank 1" in capsys.readouterr().out

    def test_missing_roles_exit_one(self, capsys):
        assert main(["split", "--gadget", "qubit-zx",
                     "--kind", "binary"]) == 1

    def test_rank_zero_binary_split_reports_rank_zero(self, tmp_path,
                                                      capsys):
        # u = 0 (2 x 3) and v = 0 (3 x 2) pass the suite; their splitting
        # maps are 0 x 0, whose residuals are maxima over no entries
        zero = {"data": [[0, 0]] * 6}
        doc = {"kind": "binary_idempotent",
               "atoms": {"P": {"dim": 3}, "Q": {"dim": 2}},
               "objects": {"A": {"atom": "P"}, "B": {"atom": "Q"}},
               "morphisms": {"u": {"rows": 2, "cols": 3} | zero,
                             "v": {"rows": 3, "cols": 2} | zero}}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--suite", "binary-idempotent",
                     "--gadget", str(path)]) == 0
        capsys.readouterr()
        assert main(["split", "--gadget", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "rank 0, iso residual 0.000e+00\n" and err == ""

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3"])
    def test_saved_retract_splits_as_every_kind(self, tmp_path, capsys,
                                                name):
        # the retraction preserves the monoid and the section the
        # comonoid, so each side's idempotents have a different flavour
        g = retract_idempotent(load_gadget(name), degree=2)["gadget"]
        path = tmp_path / "retract.json"
        path.write_text(json.dumps(gadget_to_json(g)))
        for kind in ("monoid", "comonoid", "bialgebra"):
            assert main(["split", "--gadget", str(path), "--kind", kind,
                         "-o", str(tmp_path / f"{kind}.json")]) == 0, kind
        assert main(["check", "--suite", "complementary", "--gadget",
                     str(tmp_path / "bialgebra.json")]) == 0
        assert capsys.readouterr().out.strip().endswith("pass")

    @pytest.mark.parametrize("kind", ["monoid", "comonoid", "bialgebra"])
    def test_rank_zero_split_checks_as_written(self, tmp_path, capsys,
                                               kind):
        # the split wrote atoms of dim 0, which `check` refused to read
        doc = json.loads(QUBIT_DOC)
        zero = {"rows": 2, "cols": 2, "data": [[0, 0]] * 4}
        doc["morphisms"] |= {"ub": zero, "vb": zero}
        path, out = tmp_path / "gadget.json", tmp_path / "split.json"
        path.write_text(json.dumps(doc))
        assert main(["split", "--gadget", str(path), "--kind", kind,
                     "-o", str(out)]) == 0
        assert {spec["dim"] for spec in
                json.loads(out.read_text())["atoms"].values()} == {0}
        suite = "linear-comonoid" if kind == "comonoid" else "linear-monoid"
        assert main(["check", "--suite", suite, "--gadget", str(out)]) == 0
        assert capsys.readouterr().out.strip().endswith("pass")

    @pytest.mark.parametrize("kind", ["monoid", "comonoid", "bialgebra"])
    def test_idempotents_that_do_not_compose_exit_one(self, tmp_path,
                                                      capsys, kind):
        doc = json.loads(QUBIT_DOC)
        doc["morphisms"] |= {
            "ub": {"rows": 2, "cols": 3, "data": [[1, 0]] * 6},
            "vb": {"rows": 2, "cols": 2, "data": [[1, 0]] * 4}}
        path = tmp_path / "gadget.json"
        path.write_text(json.dumps(doc))
        assert main(["split", "--gadget", str(path), "--kind", kind]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestExpDemo:
    def test_full_pipeline_at_low_degree(self, capsys):
        assert main(["exp", "demo", "--gadget", "qubit-zx",
                     "--degree", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovery error 0.000e+00" in out

    def test_non_complementary_gadget_exits_two(self, tmp_path, capsys):
        import numpy as np
        from ldckit.fixtures import load_gadget
        from ldckit.gadget import gadget_to_json
        qz = load_gadget("qubit-zx")
        phase = np.diag([1.0, -1.0]).astype(complex)
        cup = np.kron(np.eye(2), phase) @ qz.morphism("tau_L")
        cap = qz.morphism("gam_L") @ np.kron(phase, np.eye(2))
        twisted = qz.with_morphisms(tau_L=cup, tau_R=cup.copy(),
                                    gam_L=cap, gam_R=cap.copy())
        path = tmp_path / "twisted.json"
        path.write_text(json.dumps(gadget_to_json(twisted)))
        assert main(["exp", "demo", "--gadget", str(path),
                     "--degree", "2"]) == 2

    def test_induces_a_saved_exponential_at_its_own_degree(self, induced_doc,
                                                           capsys):
        assert main(["exp", "demo", "--gadget", str(induced_doc),
                     "--degree", "2"]) == 0
        assert "recovery error 0.000e+00" in capsys.readouterr().out

    @pytest.mark.parametrize("degree", ["1", "3"])
    def test_inducing_at_another_degree_exits_one(self, induced_doc, capsys,
                                                  degree):
        # one ModelEnv.degree was read for both levels of !!Q: the demo
        # failed on the shape of tau_L, (81796, 1) against (7056, 1) at 3.
        # Then it was refused only after the input's complementary check
        # had printed its residual.
        assert main(["exp", "demo", "--gadget", str(induced_doc),
                     "--degree", degree]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: induction at degree {degree} of a gadget over a "
            f"degree-2 exponential: the model holds one degree bound, so "
            f"induce it at 2"]

    def test_retract_refuses_another_degree_before_any_check(
            self, induced_doc, monkeypatch):
        import ldckit.exponential
        g = load_gadget(str(induced_doc))

        def checked(*args):
            raise AssertionError("a suite was checked")
        monkeypatch.setattr(ldckit.exponential, "_require_suite", checked)
        with pytest.raises(LdcError, match="induction at degree 3 of a "
                                           "gadget over a degree-2 "
                                           "exponential"):
            retract_idempotent(g, 3)

    def test_wrong_gadget_kind_exits_one(self, capsys):
        assert main(["exp", "demo", "--gadget", "weil",
                     "--degree", "2"]) == 1

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_degree_below_one_exits_one(self, capsys, degree):
        assert main(["exp", "demo", "--gadget", "qubit-zx",
                     "--degree", degree]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["qubit-zx", "zn:3", "zn:4"])
    def test_degree_one_split_is_refused(self, capsys, name):
        # degree 1 has no grade 2 for the copy comonoid's a (x) a term, so
        # the retract's comonoid side preserves the idempotent in neither
        # flavour; the demo once skipped this check and exited 0
        assert main(["exp", "demo", "--gadget", name, "--degree", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ("complementary (input): worst residual 0.000e+00\n"
                       "retraction: flat;eps deviation 0.000e+00, "
                       "idempotency deviation 0.000e+00\n")
        assert err == ("error: suite comonoid-sectional (sectional) and "
                       "comonoid-retractional (retractional) failed: worst "
                       "residuals 1.000e+00 and 1.000e+00\n")

    def test_degree_5_recovers_the_qubit(self, capsys):
        assert main(["exp", "demo", "--gadget", "qubit-zx",
                     "--degree", "5"]) == 0
        assert "recovery error 0.000e+00" in capsys.readouterr().out

    def test_zn3_recovers_at_degree_3(self, capsys):
        assert main(["exp", "demo", "--gadget", "zn:3",
                     "--degree", "3"]) == 0
        assert "recovery error 0.000e+00" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", [
        ["exp", "demo", "--gadget", "zn:3", "--degree", "99999999999"],
        ["exp", "demo", "--gadget", "zn:3", "--degree", "400"],
        ["exp", "demo", "--gadget", "qubit-zx", "--degree", "3000"],
        ["check", "--suite", "linear-monoid"]])
    def test_huge_degree_is_refused_before_enumerating(self, tmp_path, capsys,
                                                       cmd):
        # the multiset basis was enumerated before any size check: still
        # running after 60 s, or out of memory
        if "--gadget" not in cmd:
            doc = json.loads(QUBIT_DOC) | {"degree": 99999999999}
            doc["objects"] = {"A": {"bang": {"atom": "Q"}},
                              "B": {"bang": {"atom": "Q"}}}
            path = tmp_path / "bang.json"
            path.write_text(json.dumps(doc))
            cmd = cmd + ["--gadget", str(path)]
        t0 = time.perf_counter()
        assert main(cmd) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: degree-")
        assert "multiset basis" in err[0]

    def test_huge_atom_dim_is_refused_before_its_labels(self, tmp_path,
                                                        capsys):
        # 10**9 default labels were built before any size check: under a
        # 2 GB address-space cap, "error: out of memory: " and no reason
        doc = json.loads(QUBIT_DOC) | {"atoms": {"Q": {"dim": 10 ** 9}}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["check", "--suite", "linear-monoid",
                     "--gadget", str(path)]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            "error: atom 'Q' (basis labels): needs 1000000000, the limit "
            "is 33554432\n")

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        import ldckit.cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 760. MiB")
        monkeypatch.setattr(ldckit.cli, "retract_idempotent", exhausted)
        assert main(["exp", "demo", "--gadget", "zn:3",
                     "--degree", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")


class TestExamples:
    def test_lists_builtins(self, capsys):
        assert main(["examples"]) == 0
        names = capsys.readouterr().out.split()
        assert names == ["quad4", "quad4-flip", "qubit-zx", "weil"]
        assert names == fixture_names()


class TestCyclicGadgets:
    """`zn:<n>`: the Z_n group algebra with the copy comonoid, built on
    demand for any n and not listed by `ldckit examples`."""

    def test_zn2_is_qubit_zx(self):
        zn2, qubit = load_gadget("zn:2"), load_gadget("qubit-zx")
        assert set(zn2.morphisms) == set(qubit.morphisms)
        for role, mat in qubit.morphisms.items():
            assert np.array_equal(zn2.morphism(role), mat), role

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_matches_the_bench_input(self, n):
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import inputs
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
        want = inputs.cyclic_bialgebra(n)
        got = load_gadget(f"zn:{n}")
        assert got.env == want.env
        assert set(got.morphisms) == set(want.morphisms)
        for role, mat in want.morphisms.items():
            assert np.array_equal(got.morphism(role), mat), role

    @pytest.mark.parametrize("n", [3, 4])
    def test_is_a_complementary_bialgebra(self, n, capsys):
        for suite in ("complementary", "linear-bialgebra"):
            assert main(["check", "--suite", suite,
                         "--gadget", f"zn:{n}"]) == 0
        # the identity cups give the identity antipode, but Z_n's antipode
        # is negation, which is the identity only for n = 2
        assert main(["check", "--suite", "hopf", "--gadget", f"zn:{n}"]) == 2

    @pytest.mark.parametrize("name", ["zn:1", "zn:x", "zn:-3", "zn:",
                                      "zn:2.5", "zn:" + "9" * 5000])
    def test_bad_order_exits_one(self, name, capsys):
        assert main(["check", "--suite", "hopf", "--gadget", name]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n >= 2" in err

    def test_huge_order_names_the_limit(self, capsys):
        assert main(["check", "--suite", "hopf",
                     "--gadget", "zn:100000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "the limit is" in err

    def test_not_listed(self, capsys):
        assert main(["examples"]) == 0
        assert not any(name.startswith("zn:")
                       for name in capsys.readouterr().out.split())


class TestUsage:
    def test_missing_arguments_exit_one(self, capsys):
        assert main(["check"]) == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["check", "--suite", "dual", "--gadget", "weil",
                     "--no-such-flag"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["check", "--help"]) == 0
        assert "--suite" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", [["check", "--suite", "linear-monoid"],
                                     ["split", "--kind", "monoid"]])
    def test_exponential_document_without_degree_exits_one(self, tmp_path,
                                                          capsys, cmd):
        # the bound of its multiset bases is the document's to state
        doc = json.loads(QUBIT_DOC)
        doc["objects"] = {"A": {"bang": {"atom": "Q"}},
                          "B": {"bang": {"atom": "Q"}}}
        path = tmp_path / "bang.json"
        path.write_text(json.dumps(doc))
        assert main(cmd + ["--gadget", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: a gadget document over an exponential must "
                       "state its 'degree', the bound of its multiset "
                       "bases\n")

    @pytest.mark.parametrize("cmd", [["check", "--suite", "linear-monoid"],
                                     ["split", "--kind", "monoid"]])
    def test_negative_degree_exits_one(self, tmp_path, capsys, cmd):
        # the model's exponentials reached MultisetBasis, whose ValueError
        # escaped as a traceback
        doc = json.loads(QUBIT_DOC) | {"degree": -1}
        doc["objects"] = {"A": {"bang": {"atom": "Q"}},
                          "B": {"bang": {"atom": "Q"}}}
        path = tmp_path / "bang.json"
        path.write_text(json.dumps(doc))
        assert main(cmd + ["--gadget", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: a document's degree is a nonnegative "
                       "integer, got -1\n")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "x"])
    @pytest.mark.parametrize("cmd", [
        ["check", "--suite", "linear-monoid", "--gadget", "zn:2"],
        ["check", "--suite", "dagger-linear-monoid", "--gadget",
         "quad4-flip"],
        ["split", "--kind", "monoid", "--gadget", "zn:2"],
        ["exp", "demo", "--gadget", "qubit-zx", "--degree", "2"]])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, cmd,
                                                      tol):
        # nan and -1 failed checks that pass, and inf passed ones that fail
        assert main(cmd + ["--tol", tol]) == 1
        err = capsys.readouterr().err
        assert "error: argument --tol:" in err and "Traceback" not in err

    # the refusal names the text typed, as it always has
    @pytest.mark.parametrize("tol, message", [
        ("-1", "tolerance must be a finite number of at least 0, got -1"),
        ("-0.50", "tolerance must be a finite number of at least 0, "
                  "got -0.50"),
        ("1e400", "tolerance must be a finite number of at least 0, "
                  "got 1e400"),
        ("x", "invalid _tolerance value: 'x'")])
    def test_tolerance_refusal_names_the_text_typed(self, capsys, tol,
                                                    message):
        assert main(["check", "--suite", "linear-monoid", "--gadget", "zn:2",
                     "--tol", tol]) == 1
        assert f"error: argument --tol: {message}\n" \
            in capsys.readouterr().err

    def test_tolerance_is_read_as_a_float(self):
        args = build_parser().parse_args(
            ["check", "--suite", "s", "--gadget", "g", "--tol", "0.50"])
        assert type(args.tol) is float and repr(args.tol) == "0.5"

    @pytest.mark.parametrize("cmd, code", [
        (["check", "--suite", "linear-monoid", "--gadget", "zn:2"], 0),
        (["check", "--suite", "dagger-linear-monoid", "--gadget",
          "quad4-flip"], 2),
        (["exp", "demo", "--gadget", "qubit-zx", "--degree", "2"], 0)])
    def test_zero_tolerance_is_accepted(self, capsys, cmd, code):
        assert main(cmd + ["--tol", "0"]) == code
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ["validate"], ["normalize"], ["render"],
        ["check", "--suite", "complementary", "--gadget"],
        ["split", "--gadget"], ["exp", "demo", "--gadget"]])
    def test_file_that_is_not_utf8_exits_one(self, tmp_path, capsys, cmd):
        # the file was decoded outside the parsers' error handling, and its
        # UnicodeDecodeError escaped as a traceback
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe")
        assert main(cmd + [str(path)]) == 1
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in out + err

    def test_parser_is_built_once(self, capsys):
        build_parser.cache_clear()
        assert main(["examples"]) == 0
        assert main(["check"]) == 1
        assert build_parser.cache_info().misses == 1


# -- fuzzing circuit documents ----------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(
        ["", "w", "gen", "top_elim", "bot_intro", "dagger_box", "atom"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["atom", "top", "tensor", "id",
                                       "kind", "ports", "thin"]),
                      inner, max_size=2),
    max_leaves=6)


def _slots(doc, out):
    """Every (container, key) pair inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@st.composite
def circuit_documents(draw):
    """A serialized random net, perhaps expanded, with up to three random
    edits: a value replaced by a random JSON value or by one of the
    document's wire ids, a value deleted, or a thinning anchor set on the
    object that holds a value (a node, most often)."""
    c, _ = draw(circuits())
    for _ in range(draw(st.integers(0, 2))):
        compound = sorted(w for w, t in c.wires.items()
                          if isinstance(t, (Tensor, Par, Top, Bot)))
        if compound:
            c = expand_wire(c, draw(st.sampled_from(compound)))
    doc = json.loads(serialize(c))
    for _ in range(draw(st.integers(0, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        edit = draw(st.sampled_from(["value", "wire", "delete", "anchor"]))
        if edit == "delete":
            del container[key]
        elif edit == "anchor":
            if isinstance(container, dict):
                container["thin"] = draw(st.sampled_from(sorted(c.wires)))
        else:
            container[key] = draw(json_values) if edit == "value" \
                else draw(st.sampled_from(sorted(c.wires)))
    return doc


class TestFuzzCircuitDocuments:
    @pytest.mark.parametrize("cmd", ["validate", "normalize", "render"])
    @pytest.mark.parametrize("depth", [sys.getrecursionlimit() - 10, 5000])
    @pytest.mark.parametrize("lifted", [False, True])
    def test_deeply_nested_document_exits_one(self, tmp_path, capsys,
                                              monkeypatch, cmd, depth,
                                              lifted):
        # the JSON decoder raised RecursionError, and the CLI printed a
        # traceback. With `lifted` the decoder's own depth limit lies above
        # the frame limit, as in Python 3.12 and later, so the document
        # parses and the recursion runs out while its types are read.
        if lifted:
            def loads(text, _loads=json.loads):
                limit = sys.getrecursionlimit()
                sys.setrecursionlimit(4 * depth)
                try:
                    return _loads(text)
                finally:
                    sys.setrecursionlimit(limit)
            monkeypatch.setattr(json, "loads", loads)
        wire_type = '{"dagger": ' * depth + '{"atom": "A"}' + "}" * depth
        path = tmp_path / "deep.json"
        path.write_text('{"wires": [{"id": "a", "type": %s}], "nodes": [], '
                        '"inputs": ["a"], "outputs": ["a"]}' % wire_type)
        assert main([cmd, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @settings(max_examples=100, deadline=None)
    @given(doc=circuit_documents())
    def test_commands_exit_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.json"
            path.write_text(json.dumps(doc))
            for argv, ok in ((["validate"], (0, 2)),
                             (["normalize", "-o", f"{tmp}/out.json"], (0,)),
                             (["render"], (0,))):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = main(argv[:1] + [str(path)] + argv[1:])
                text = err.getvalue()
                assert "Traceback" not in text, argv
                assert rc in ok or rc == 1 and text.startswith("error: "), \
                    (argv, rc, text)


# -- fuzzing gadget documents -----------------------------------------------

# The qubit-zx document, its matrices in base64, and the same gadget with
# its matrices written as [re, im] pairs.
QUBIT_DOC = json.dumps(gadget_to_json(load_gadget("qubit-zx")))
QUBIT_DOCS = (QUBIT_DOC,
              json.dumps(gadget_to_pair_json(load_gadget("qubit-zx"))))
# Values that a matrix document in base64 holds, and some that are close.
matrix_values = st.sampled_from(["float64", "complex128", "complex64", "",
                                 "AAAA", "AAAAAAAA8D8=", "AAAAAAAA8D8",
                                 "AAAAAAAA8H8=", "A?==", "=="])


@st.composite
def gadget_documents(draw):
    """The qubit-zx gadget document, in either matrix encoding, with one
    to three random edits: a value replaced by a random JSON value, or
    deleted."""
    doc = json.loads(draw(st.sampled_from(QUBIT_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(json_values | matrix_values)
    return doc


@st.composite
def split_documents(draw):
    """The qubit-zx gadget document with a pair ub, vb of random shapes,
    half the time transposed to one another, and entries in {-1, 0, 1}."""
    doc = json.loads(QUBIT_DOC)
    shape = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    for role in ("ub", "vb"):
        rows, cols = shape
        data = draw(st.lists(st.lists(st.integers(-1, 1), min_size=2,
                                      max_size=2),
                             min_size=rows * cols, max_size=rows * cols))
        doc["morphisms"][role] = {"rows": rows, "cols": cols, "data": data}
        shape = (shape[::-1] if draw(st.booleans())
                 else (draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    return doc


def _exits_cleanly(argv: list[str], ok=(0, 2)) -> None:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    text = err.getvalue()
    assert "Traceback" not in text
    assert rc in ok or rc == 1 and text.startswith("error: "), (rc, text)


def _check_exits_cleanly(path: Path, suite: str, ok=(0, 2)) -> None:
    _exits_cleanly(["check", "--suite", suite, "--gadget", str(path)], ok)


class TestFuzzGadgetDocuments:
    # the JSON decoder raised RecursionError, and `check` printed a
    # traceback
    @pytest.mark.parametrize("depth", [sys.getrecursionlimit() - 10, 3000])
    def test_deeply_nested_atoms_exit_one(self, tmp_path, depth):
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "dual", "objects": {}, "morphisms": {}, '
                        '"atoms": %s}' % ("[" * depth + "]" * depth))
        _check_exits_cleanly(path, "dual", ok=())

    # With the decoder's depth limit above the frame limit, as in Python
    # 3.12 and later, the recursion runs out while an object type is read.
    def test_deeply_nested_object_type_exits_one(self, tmp_path,
                                                 monkeypatch):
        depth = 5000

        def loads(text, _loads=json.loads):
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(4 * depth)
            try:
                return _loads(text)
            finally:
                sys.setrecursionlimit(limit)
        monkeypatch.setattr(json, "loads", loads)
        doc = json.loads(QUBIT_DOC)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc | {"objects": {"A": "@", "B": "@"}})
                        .replace('"@"', '{"dagger": ' * depth
                                 + '{"atom": "Q"}' + "}" * depth))
        _check_exits_cleanly(path, "dual", ok=())

    @settings(max_examples=100, deadline=None)
    @given(doc=gadget_documents(),
           suite=st.sampled_from(["dual", "complementary", "hopf"]))
    def test_check_exits_cleanly(self, doc, suite):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gadget.json"
            path.write_text(json.dumps(doc))
            _check_exits_cleanly(path, suite)

    # `split` multiplied ub and vb before any check, and a pair that did
    # not compose raised NumPy's ValueError
    @settings(max_examples=100, deadline=None)
    @given(doc=split_documents(),
           kind=st.sampled_from(["monoid", "comonoid", "bialgebra"]))
    def test_split_exits_cleanly(self, doc, kind):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gadget.json"
            path.write_text(json.dumps(doc))
            _exits_cleanly(["split", "--gadget", str(path), "--kind", kind])
