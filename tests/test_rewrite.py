"""Reduction rewriting and wire expansion, and the normalizer against the
one as first written (`tests/rewrite_oracle.py`)."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import (Circuit, Node, generator, identity, isomorphic,
                            par, par_elim, par_intro, seq, tensor_elim,
                            tensor_intro, top_elim_on, top_intro)
from ldckit.errors import NotExpandable
from ldckit.objects import Atom, Bot, Par, Tensor, Top
from ldckit.rewrite import expand_wire, normalize
from ldckit.validity import validate

import rewrite_oracle
from test_validity import circuits

A, B, C = Atom("A"), Atom("B"), Atom("C")
EXPANDABLE = (Tensor, Par, Top, Bot)


def node(kind: str, ins=(), outs=(), thin=None) -> Node:
    return Node(kind=kind, ins=tuple(ins), outs=tuple(outs), thin=thin)


# One net per row of the redex table, with the wire that links the pair.
# Each normalizes to the identity on its boundary.
REDEX_ROWS = {
    "top intro-elim": (
        {"a": A, "t": Top()},
        {"i": node("top_intro", outs=["t"]),
         "e": node("top_elim", ins=["t"], thin="a")}, ["a"], ["a"], "t"),
    "bot intro-elim": (
        {"a": A, "b": Bot()},
        {"i": node("bot_intro", outs=["b"], thin="a"),
         "e": node("bot_elim", ins=["b"])}, ["a"], ["a"], "b"),
    "tensor intro-elim": (
        {"a": A, "b": B, "ab": Tensor(A, B), "c": A, "d": B},
        {"i": node("tensor_intro", ["a", "b"], ["ab"]),
         "e": node("tensor_elim", ["ab"], ["c", "d"])},
        ["a", "b"], ["c", "d"], "ab"),
    "par intro-elim": (
        {"a": A, "b": B, "ab": Par(A, B), "c": A, "d": B},
        {"i": node("par_intro", ["a", "b"], ["ab"]),
         "e": node("par_elim", ["ab"], ["c", "d"])},
        ["a", "b"], ["c", "d"], "ab"),
    "tensor elim-intro": (
        {"x": Tensor(A, B), "a": A, "b": B, "y": Tensor(A, B)},
        {"e": node("tensor_elim", ["x"], ["a", "b"]),
         "i": node("tensor_intro", ["a", "b"], ["y"])}, ["x"], ["y"], "b"),
    "par elim-intro": (
        {"x": Par(A, B), "a": A, "b": B, "y": Par(A, B)},
        {"e": node("par_elim", ["x"], ["a", "b"]),
         "i": node("par_intro", ["a", "b"], ["y"])}, ["x"], ["y"], "a"),
    "top anchored": (
        {"x": Top(), "t": Top()},
        {"e": node("top_elim", ins=["x"], thin="t"),
         "i": node("top_intro", outs=["t"])}, ["x"], ["t"], "t"),
    "bot anchored": (
        {"x": Bot(), "b": Bot()},
        {"e": node("bot_elim", ins=["x"]),
         "i": node("bot_intro", outs=["b"], thin="x")}, ["x"], ["b"], "x"),
}


def assert_matches_oracle(c: Circuit, label: object = "") -> None:
    got, want = normalize(c), rewrite_oracle.normalize(c)
    assert len(got.nodes) == len(want.nodes), label
    assert isomorphic(got, want), label


class TestReduction:
    def test_tensor_intro_elim_cancels(self):
        c = seq(tensor_intro(A, B), tensor_elim(A, B))
        assert len(normalize(c).nodes) == 0

    def test_par_elim_intro_cancels(self):
        c = seq(par_elim(A, B), par_intro(A, B))
        assert len(normalize(c).nodes) == 0

    def test_unit_intro_elim_cancels(self):
        c = seq(par(top_intro(), identity([A])), top_elim_on(A))
        assert len(normalize(c).nodes) == 0

    def test_normal_forms_are_fixed_points(self, corpus):
        for name, circuit, _ in corpus:
            once = normalize(circuit)
            assert isomorphic(once, normalize(once)), name

    def test_node_count_never_increases(self, corpus):
        for name, circuit, _ in corpus:
            reduced = normalize(circuit)
            assert len(reduced.nodes) <= len(circuit.nodes), name
            # every reduction step erases an intro/elim pair
            assert (len(circuit.nodes) - len(reduced.nodes)) % 2 == 0, name

    def test_generators_block_reduction(self):
        c = seq(tensor_intro(A, B), generator("f", [Tensor(A, B)], [C]))
        assert len(normalize(c).nodes) == len(c.nodes)

    def test_thinning_anchor_blocks_unit_reduction(self):
        # the unit wire anchors a third node's thinning link, so erasing
        # the intro/elim pair would orphan that link
        c = Circuit(
            {"wt": Top(), "wb": Bot()},
            {"n1": Node(kind="top_intro", ins=(), outs=("wt",)),
             "n2": Node(kind="top_elim", ins=("wt",), outs=(), thin="wb"),
             "n3": Node(kind="bot_intro", ins=(), outs=("wb",), thin="wt")},
            [], ["wb"])
        assert len(normalize(c).nodes) == 3


class TestRedexTable:
    @pytest.mark.parametrize("row", REDEX_ROWS)
    def test_row_erases_to_the_identity(self, row):
        wires, nodes, ins, outs, _ = REDEX_ROWS[row]
        c = Circuit(wires, nodes, ins, outs)
        reduced = normalize(c)
        assert not reduced.nodes
        assert isomorphic(reduced, identity(c.input_types()))

    @pytest.mark.parametrize("row", REDEX_ROWS)
    def test_anchor_on_the_linking_wire_blocks_the_row(self, row):
        # a third node thinned onto the wire that links the pair: erasing
        # the pair would delete or merge away that node's anchor.  On a ⊥
        # link a ⊥ introduction would make a redex of its own, so a ⊤
        # elimination blocks there.
        wires, nodes, ins, outs, link = REDEX_ROWS[row]
        if isinstance(wires[link], Bot):
            block = node("top_elim", ins=["z"], thin=link)
            c = Circuit(wires | {"z": Top()}, nodes | {"z": block},
                        ins + ["z"], outs)
        else:
            block = node("bot_intro", outs=["z"], thin=link)
            c = Circuit(wires | {"z": Bot()}, nodes | {"z": block},
                        ins, outs + ["z"])
        assert len(normalize(c).nodes) == len(c.nodes)
        assert len(rewrite_oracle.normalize(c).nodes) == len(c.nodes)

    def test_erasure_releases_a_blocked_consumer(self):
        # n1 is tried first and is blocked: two ⊥ introductions are thinned
        # onto its input.  Erasing n9 with n8 releases it, so n1 has to be
        # tried again.
        c = Circuit(
            {"a": Bot(), "b": Bot(), "x": Bot()},
            {"n1": node("bot_elim", ins=["a"]),
             "n5": node("bot_intro", outs=["b"], thin="a"),
             "n9": node("bot_intro", outs=["x"], thin="a"),
             "n8": node("bot_elim", ins=["x"])}, ["a"], ["b"])
        assert c.topo_order()[0] == "n1"
        assert isomorphic(normalize(c), identity([Bot()]))

    def test_erasure_releases_a_blocked_producer(self):
        # the ⊤ introduction n1 is tried first and is blocked: two ⊤
        # eliminations are thinned onto its output.  Erasing n2 with n4
        # releases it, so n1 has to be tried again.
        c = Circuit(
            {"x": Top(), "t": Top(), "y": Top()},
            {"n1": node("top_intro", outs=["t"]),
             "n2": node("top_intro", outs=["y"]),
             "n3": node("top_elim", ins=["x"], thin="t"),
             "n4": node("top_elim", ins=["y"], thin="t")}, ["x"], ["t"])
        assert c.topo_order()[0] == "n1"
        assert isomorphic(normalize(c), identity([Top()]))

    def test_merge_links_a_tried_producer(self):
        # n1 is tried first, when its first output feeds a ⊤ elimination.
        # Erasing n2 with n3 merges that output into the ⊗ introduction n4,
        # so n1 has to be tried again.
        c = Circuit(
            {"w": Tensor(Top(), A), "a": Top(), "b": A, "t": Top(),
             "y": Tensor(Top(), A)},
            {"n1": node("tensor_elim", ["w"], ["a", "b"]),
             "n2": node("top_intro", outs=["t"]),
             "n3": node("top_elim", ins=["a"], thin="t"),
             "n4": node("tensor_intro", ["t", "b"], ["y"])}, ["w"], ["y"])
        assert c.topo_order()[0] == "n1"
        assert isomorphic(normalize(c), identity([Tensor(Top(), A)]))

    def test_merge_links_a_tried_consumer(self):
        # the ⊥ elimination n4 is tried while n9's anchor on w still blocks
        # the ⊗ pair n1, n3.  Erasing n9 with n8 releases the pair, and
        # erasing it merges n4's input g into k, which the ⊥ introduction
        # n2 is thinned onto, so n4 has to be tried again.
        c = Circuit(
            {"k": Bot(), "c": C, "w": Tensor(Bot(), C), "g": Bot(), "d": C,
             "z": Bot(), "x": Bot()},
            {"n1": node("tensor_intro", ["k", "c"], ["w"]),
             "n2": node("bot_intro", outs=["z"], thin="k"),
             "n3": node("tensor_elim", ["w"], ["g", "d"]),
             "n4": node("bot_elim", ins=["g"]),
             "n9": node("bot_intro", outs=["x"], thin="w"),
             "n8": node("bot_elim", ins=["x"])}, ["k", "c"], ["z", "d"])
        assert c.topo_order().index("n4") < c.topo_order().index("n9")
        assert isomorphic(normalize(c), identity([Bot(), C]))


class TestAgainstOracle:
    def test_corpus(self, corpus):
        for name, circuit, _ in corpus:
            assert_matches_oracle(circuit, name)

    def test_every_single_expansion(self, corpus):
        for name, circuit, _ in corpus:
            for w, t in circuit.wires.items():
                if isinstance(t, EXPANDABLE):
                    assert_matches_oracle(expand_wire(circuit, w), (name, w))

    @settings(max_examples=120, deadline=None)
    @given(case=circuits(), data=st.data())
    def test_random_nets_with_expansions(self, case, data):
        c, _ = case
        for _ in range(data.draw(st.integers(0, 4))):
            wires = sorted(w for w, t in c.wires.items()
                           if isinstance(t, EXPANDABLE))
            if not wires:
                break
            c = expand_wire(c, data.draw(st.sampled_from(wires)))
        assert_matches_oracle(c)


class TestValiditySoundness:
    def test_verdict_stable_under_normalization(self, corpus):
        for name, circuit, _ in corpus:
            assert validate(circuit).valid \
                == validate(normalize(circuit)).valid, name


class TestExpansion:
    def test_unknown_wire_rejected(self):
        with pytest.raises(NotExpandable):
            expand_wire(identity([A]), "nonexistent")

    def test_atomic_wire_rejected(self):
        c = identity([A])
        (w,) = c.wires
        with pytest.raises(NotExpandable):
            expand_wire(c, w)

    def test_expand_inserts_elim_intro_pair(self):
        c = identity([Tensor(A, B)])
        (w,) = c.wires
        expanded = expand_wire(c, w)
        kinds = sorted(n.kind for n in expanded.nodes.values())
        assert kinds == ["tensor_elim", "tensor_intro"]

    @pytest.mark.parametrize("t, kinds", [
        (Par(A, B), ["par_elim", "par_intro"]),
        (Top(), ["top_elim", "top_intro"]),
        (Bot(), ["bot_elim", "bot_intro"])])
    def test_expand_inserts_the_pair_its_row_erases(self, t, kinds):
        c = seq(generator("f", [A], [t]), generator("g", [t], [B]))
        (w,) = (w for w in c.wires if c.wires[w] == t)
        expanded = expand_wire(c, w)
        assert sorted(n.kind for n in expanded.nodes.values()
                      if n.kind != "gen") == kinds
        assert isomorphic(normalize(expanded), c)

    def test_expand_then_normalize_round_trips(self, corpus):
        for name, circuit, _ in corpus:
            for w, t in circuit.wires.items():
                if not isinstance(t, EXPANDABLE):
                    continue
                expanded = expand_wire(circuit, w)
                assert isomorphic(normalize(expanded),
                                  normalize(circuit)), (name, w)

    @settings(max_examples=30, deadline=None)
    @given(depth=st.integers(min_value=1, max_value=3))
    def test_repeated_expansion_normalizes_back(self, depth):
        c = generator("f", [Tensor(A, B)], [Par(B, C)])
        current = c
        for _ in range(depth):
            composite = [w for w, t in current.wires.items()
                         if isinstance(t, (Tensor, Par))]
            current = expand_wire(current, composite[0])
        assert isomorphic(normalize(current), c)
