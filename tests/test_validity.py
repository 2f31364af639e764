"""Correctness checking by box merging."""
from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import (Circuit, bot_elim, bot_intro_on, dagger_box,
                            generator, identity, par, par_elim, par_intro,
                            seq, swap, tensor_elim, tensor_intro, top_elim_on,
                            top_intro)
from ldckit.objects import Atom
from ldckit.validity import validate

from validity_oracle import validate as oracle_validate

A, B, C = Atom("A"), Atom("B"), Atom("C")


class TestVerdicts:
    def test_corpus_verdicts(self, corpus):
        for name, circuit, expect in corpus:
            assert validate(circuit).valid is expect, name

    def test_single_generator_is_one_box(self):
        rep = validate(generator("f", [A], [B]))
        assert rep.valid and rep.stuck is None

    def test_two_components_are_stuck(self):
        rep = validate(identity([A, B]))
        assert not rep.valid
        assert rep.stuck is not None
        assert len(rep.stuck["boxes"]) == 2

    def test_double_attachment_never_merges(self):
        c = seq(generator("f", [A], [B, B]), generator("g", [B, B], [C]))
        rep = validate(c)
        assert not rep.valid
        # the stuck state records the two-attachment cut between the boxes
        assert any(cut["attachments"] == 2 for cut in rep.stuck["cuts"])


class TestTrace:
    def test_trace_records_every_rule_application(self):
        c = seq(tensor_elim(A, B), tensor_intro(A, B))
        rep = validate(c)
        rules = [step["rule"] for step in rep.trace]
        assert "a1" in rules      # introduction starts boxed
        assert "b1" in rules      # elimination absorbed into the box
        assert rules.count("c") >= 1

    def test_unit_absorption_rules(self):
        c = seq(par(top_intro(), identity([A])), top_elim_on(A))
        rep = validate(c)
        rules = [step["rule"] for step in rep.trace]
        assert rep.valid
        assert "d2" in rules and "e1" in rules


def relabelled(c: Circuit, rng: random.Random) -> tuple[Circuit, dict]:
    """`c` with its wire and node ids renamed at random, and the map from
    each new id back to the old one.  `validate` breaks ties between legal
    moves by id, so this reorders its moves."""
    wires, nodes = list(c.wires), list(c.nodes)
    rng.shuffle(wires)
    rng.shuffle(nodes)
    wire_map = {w: f"w{k}" for k, w in enumerate(wires)}
    node_map = {nid: f"n{k}" for k, nid in enumerate(nodes)}
    out = Circuit({wire_map[w]: t for w, t in c.wires.items()},
                  {node_map[nid]: n.rewired(wire_map)
                   for nid, n in c.nodes.items()},
                  [wire_map[w] for w in c.inputs],
                  [wire_map[w] for w in c.outputs])
    return out, {new: old for old, new in (wire_map | node_map).items()}


# the worklist's moves, which follow the boxes opened on nodes and wires
_MOVES = ("c", "b1", "b2", "e1", "e3")


def assert_order_independent(c: Circuit, want: bool, seeds: range,
                             label: str = "") -> set:
    """The verdict of the reference procedure under a random schedule, and
    of `validate` under random relabellings, is `want` for every seed.
    Returns the distinct orders in which `validate` took its moves, with
    each box named by the id in `c` of the node or wire it was opened on."""
    orders = set()
    for seed in seeds:
        assert oracle_validate(c, random.Random(seed)).valid is want, \
            (label, seed)
        r, back = relabelled(c, random.Random(seed))
        rep = validate(r)
        assert rep.valid is want, (label, seed)
        moves = [step for step in rep.trace if step["rule"] in _MOVES]
        opened = {step["box"]: back[step.get("node", step.get("wire"))]
                  for step in rep.trace[:len(rep.trace) - len(moves)]}
        orders.add(tuple(
            frozenset(opened[b] for b in step["boxes"])
            if step["rule"] == "c" else (back[step["node"]],
                                         opened[step["box"]])
            for step in moves))
    return orders


class TestOrderIndependence:
    def test_corpus_verdicts_are_order_independent(self, corpus):
        reordered = 0
        for name, circuit, expect in corpus:
            orders = assert_order_independent(circuit, expect, range(20),
                                              name)
            reordered += len(orders) > 1
        # the relabellings do reorder the moves: 12 of the 20 fixtures
        # take their moves in more than one order
        assert reordered >= 10


class TestSymmetryDissolution:
    def test_bare_swap_denotes_two_components(self):
        assert not validate(swap(A, B)).valid

    def test_swap_conjugated_by_tensor_is_valid(self):
        c = seq(tensor_elim(A, B), swap(A, B), tensor_intro(B, A))
        assert validate(c).valid

    def test_swap_chain_collapses_to_one_edge(self):
        c = seq(tensor_elim(A, A), swap(A, A), swap(A, A),
                tensor_intro(A, A))
        assert validate(c).valid


class TestParIntroBranches:
    def test_par_intro_needs_both_branches_in_one_box(self):
        # the two branch wires come from different generators, so the
        # par-introduction is never absorbed
        c = seq(par(generator("f", [], [A]), generator("g", [], [B])),
                par_intro(A, B))
        rep = validate(c)
        assert not rep.valid
        assert rep.stuck["unabsorbed"]

    def test_par_roundtrip_absorbs(self):
        assert validate(seq(par_elim(A, B), par_intro(A, B))).valid


# -- random proof nets -------------------------------------------------------
#
# Nets built by the sequent rules of the weakly distributive calculus are
# valid; two nets side by side, or two nets cut along two wires, are not.

atoms = st.sampled_from([A, B, C])


@st.composite
def axioms(draw) -> Circuit:
    kind = draw(st.sampled_from(["gen", "gen", "dagger", "top", "bot"]))
    if kind == "top":
        return top_intro()
    if kind == "bot":
        return bot_elim()
    c = generator("f", draw(st.lists(atoms, min_size=1, max_size=2)),
                  draw(st.lists(atoms, min_size=1, max_size=2)))
    return dagger_box(c) if kind == "dagger" else c


def unit_loop(kind: str, x) -> Circuit:
    """x -> x with a unit made and eliminated beside it, thinning-linked to
    the x wire: ⊤I then ⊤E, or ⊥I then ⊥E; the identity when kind is
    "none"."""
    if kind == "top":
        return seq(par(top_intro(), identity([x])), top_elim_on(x))
    if kind == "bot":
        return seq(bot_intro_on(x), par(bot_elim(), identity([x])))
    return identity([x])


def cut(p1: Circuit, p2: Circuit, loop: str) -> Circuit:
    """Gamma |- Delta, X  and  Y, Gamma' |- Delta'  cut through a one-wire
    generator X -> Y, with a unit loop on the wire into Y."""
    delta, x = p1.output_types()[:-1], p1.output_types()[-1]
    y, rest = p2.input_types()[0], p2.input_types()[1:]
    h = seq(generator("h", [x], [y]), unit_loop(loop, y))
    return seq(par(p1, identity(rest)),
               par(identity(delta), h, identity(rest)),
               par(identity(delta), p2))


def double_cut(p1: Circuit, p2: Circuit, loop: str) -> Circuit:
    """The same cut along two parallel wires, the first with a unit loop."""
    delta, x = p1.output_types()[:-1], p1.output_types()[-1]
    y, rest = p2.input_types()[0], p2.input_types()[1:]
    h1 = seq(generator("h1", [x], [A, B]),
             par(unit_loop(loop, A), identity([B])))
    h2 = generator("h2", [A, B], [y])
    return seq(par(p1, identity(rest)),
               par(identity(delta), h1, identity(rest)),
               par(identity(delta), h2, identity(rest)),
               par(identity(delta), p2))


def tensor_r(p1: Circuit, p2: Circuit) -> Circuit:
    o1, o2 = p1.output_types(), p2.output_types()
    return seq(par(p1, p2), par(identity(o1[:-1]), tensor_intro(o1[-1], o2[0]),
                                identity(o2[1:])))


def par_l(p1: Circuit, p2: Circuit) -> Circuit:
    i1, i2 = p1.input_types(), p2.input_types()
    return seq(par(identity(i1[:-1]), par_elim(i1[-1], i2[0]),
                   identity(i2[1:])), par(p1, p2))


def on_outputs(p: Circuit, i: int, step: Circuit) -> Circuit:
    o, n = p.output_types(), len(step.input_types())
    return seq(p, par(identity(o[:i]), step, identity(o[i + n:])))


def on_inputs(p: Circuit, i: int, step: Circuit) -> Circuit:
    g, n = p.input_types(), len(step.output_types())
    return seq(par(identity(g[:i]), step, identity(g[i + n:])), p)


def binary(rule: str, p1: Circuit, p2: Circuit, loop: str) -> Circuit:
    """The two-premise rule, with the premises in either order; the first
    premise alone when neither order has the wires the rule needs."""
    for q1, q2 in ((p1, p2), (p2, p1)):
        if rule == "cut" and q1.outputs and q2.inputs:
            return cut(q1, q2, loop)
        if rule == "tensor_r" and q1.outputs and q2.outputs:
            return tensor_r(q1, q2)
        if rule == "par_l" and q1.inputs and q2.inputs:
            return par_l(q1, q2)
    return p1


@st.composite
def unary(draw, p: Circuit) -> Circuit:
    """A one-premise rule: ⅋R, ⊗L, exchange or a thinning-linked unit; the
    premise itself when it lacks the wires the rule needs."""
    rule = draw(st.sampled_from(["par_r", "tensor_l", "swap_out",
                                 "swap_in", "top_elim", "bot_intro"]))
    wires = p.output_types() if rule in ("par_r", "swap_out", "bot_intro") \
        else p.input_types()
    span = 1 if rule in ("top_elim", "bot_intro") else 2
    if len(wires) < span:
        return p
    i = draw(st.integers(0, len(wires) - span))
    x, y = wires[i], wires[i + span - 1]
    if rule == "par_r":
        return on_outputs(p, i, par_intro(x, y))
    if rule == "tensor_l":
        return on_inputs(p, i, tensor_elim(x, y))
    if rule == "swap_out":
        return on_outputs(p, i, swap(x, y))
    if rule == "swap_in":
        return on_inputs(p, i, swap(y, x))
    if rule == "top_elim":
        return on_inputs(p, i, top_elim_on(x))
    return on_outputs(p, i, bot_intro_on(x))


loops = st.sampled_from(["none", "none", "top", "bot"])


@st.composite
def proof_nets(draw, depth: int = 3) -> Circuit:
    if depth == 0 or draw(st.integers(0, 7)) == 0:
        p = draw(axioms())
    else:
        rule = draw(st.sampled_from(["cut", "tensor_r", "par_l"]))
        p = binary(rule, draw(proof_nets(depth - 1)),
                   draw(proof_nets(depth - 1)), draw(loops))
    for _ in range(draw(st.integers(0, 2))):
        p = draw(unary(p))
    return p


@st.composite
def circuits(draw) -> tuple[Circuit, bool]:
    """A sequent-built net, two of them side by side, or two of them cut
    along two wires; with the verdict each must get."""
    p1 = draw(proof_nets())
    shape = draw(st.sampled_from(["one", "one", "mix", "double_cut"]))
    if shape == "one":
        return p1, True
    p2 = draw(proof_nets(2))
    if shape == "double_cut" and p1.outputs and p2.inputs:
        return double_cut(p1, p2, draw(loops)), False
    return par(p1, p2), False


def assert_matches_oracle(c: Circuit, label: str = "") -> None:
    got, want = validate(c), oracle_validate(c)
    assert got.valid == want.valid, label
    assert got.trace == want.trace, label
    # as `ldckit validate --trace` prints it, so key order counts too
    assert json.dumps(got.stuck) == json.dumps(want.stuck), label
    assert_order_independent(c, want.valid, range(5), label)


class TestAgainstOracle:
    """The worklist loop against the boxing procedure as first written."""

    def test_corpus(self, corpus):
        for name, circuit, _ in corpus:
            assert_matches_oracle(circuit, name)

    @settings(max_examples=80, deadline=None)
    @given(case=circuits())
    def test_random_circuits(self, case):
        c, expect = case
        assert_matches_oracle(c)
        assert validate(c).valid is expect
