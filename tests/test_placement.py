"""`seq` and `par` move their parts in whole, keeping ids and `Node` objects,
and copy a part only where its ids clash with ones already placed.  Every
case is tested against tests/circuit_oracle.py, whose builders copy every
part: the result is accepted by the checking constructor with the same
endpoint maps, anchor index and flow order, is isomorphic to the oracle's,
has the same layout, and evaluates bit for bit the same.  The cost is
pinned by counting: only nodes on a glued wire or thinned onto one are
redrawn."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import (Circuit, Node, bot_elim, bot_intro_on,
                            dagger_box, fresh_wire, generator, identity,
                            isomorphic, par, seq, substitute, swap,
                            tensor_elim, tensor_intro, top_elim_on,
                            top_intro)
from ldckit.io import parse, serialize
from ldckit.model import ModelEnv, evaluate
from ldckit.objects import Atom, Bot, Dagger, Top, factors

import circuit_oracle as oracle
from test_checked_once import assert_checked
from test_circuit_builders import _term, same_layout

A, B, C = Atom("A"), Atom("B"), Atom("C")
DIMS = {"A": 2, "B": 1, "C": 2}


def assert_indexed(c: Circuit) -> None:
    """`assert_checked`, and the anchor index is the checking
    constructor's too."""
    assert_checked(c)
    for part in c.nested():
        again = Circuit(part.wires, part.nodes, part.inputs, part.outputs)
        assert again._anchored == part._anchored


def _dim(types) -> int:
    return int(np.prod([DIMS[f.name] for t in types for f in factors(t)]))


def _env(c: Circuit) -> ModelEnv:
    """A random matrix for each generator of `c`, by name."""
    env = ModelEnv.make(DIMS)
    rng = np.random.default_rng(0)
    sigs = {n.name: ([part.wires[w] for w in n.ins],
                     [part.wires[w] for w in n.outs])
            for part in c.nested() for n in part.nodes.values()
            if n.kind == "gen"}
    for name in sorted(sigs):
        dom, cod = sigs[name]
        env.assign(name, rng.standard_normal((_dim(cod), _dim(dom))))
    return env


def assert_matches(new: Circuit, old: Circuit) -> None:
    assert_indexed(new)
    assert isomorphic(new, old)
    assert same_layout(new, old)
    env = _env(new)
    assert np.array_equal(evaluate(new, env), evaluate(old, env))


def both(build):
    """`build(seq, par)` with the builders and with the oracle's."""
    return build(seq, par), build(oracle.seq, oracle.par)


def ahead(c: Circuit) -> Circuit:
    """`c` written out under wire ids that the id counter is about to hand
    out, and parsed back (which names the nodes n0, n1, ...)."""
    k = int(fresh_wire()[1:]) + 1
    wire_map = {w: f"w{k + i}" for i, w in enumerate(c.wires)}
    return parse(serialize(oracle._renamed(c, wire_map, {})))


def f(name: str, dom, cod) -> Circuit:
    return generator(name, dom, cod)


# -- reused parts --------------------------------------------------------------

def _net() -> Circuit:
    """A small net (A, B) -> (B, A) with a tensor in the middle."""
    return seq(par(f("f", [A], [A]), f("g", [B], [B])), tensor_intro(A, B),
               tensor_elim(A, B), swap(A, B))


def _endo() -> Circuit:
    return seq(f("h", [A, B], [B, A]), swap(B, A))


def test_par_of_a_part_with_itself():
    c = _net()
    new, old = both(lambda s, p: p(c, c))
    assert_matches(new, old)
    assert len(new.nodes) == 2 * len(c.nodes)


def test_seq_of_a_part_with_itself():
    e = _endo()
    new, old = both(lambda s, p: s(e, e, e))
    assert_matches(new, old)
    assert len(new.nodes) == 3 * len(e.nodes)


def test_par_of_a_part_and_a_seq_holding_it():
    c, e = _net(), _endo()
    new, old = both(lambda s, p: p(c, s(c, swap(B, A), e)))
    assert_matches(new, old)


def test_a_built_part_reused_in_the_circuit_built_from_it():
    c = _net()
    d = par(c, identity([C]))
    new, old = both(lambda s, p: s(par(c, identity([C])),
                                   par(swap(B, A), identity([C])), d,
                                   p(identity([B]), f("k", [A, C], [A, C]))))
    assert_matches(new, old)


# -- parsed parts --------------------------------------------------------------

def test_parsed_part_ahead_of_the_counter_beside_copied_parts():
    c = _net()
    x = ahead(c)
    new, old = both(lambda s, p: p(x, c, c, x))
    assert_matches(new, old)
    assert len(new.wires) == 4 * len(c.wires)


def test_parsed_parts_ahead_of_the_counter_in_a_chain():
    e = _endo()
    x = ahead(e)
    new, old = both(lambda s, p: s(e, x, s(x, e), e, x))
    assert_matches(new, old)
    assert len(new.nodes) == 6 * len(e.nodes)


def test_a_parsed_part_that_reuses_pooled_ids():
    c = _net()
    x = parse(serialize(c))   # the very ids of c
    assert set(x.wires) == set(c.wires)
    new, old = both(lambda s, p: p(c, x))
    assert_matches(new, old)


# -- thinning anchors on glued wires ------------------------------------------

def test_top_elimination_thinned_onto_a_glued_wire():
    x = par(top_intro(), f("f", [B], [A]))
    new, old = both(lambda s, p: s(x, top_elim_on(A), f("g", [A], [C])))
    assert_matches(new, old)


def test_bot_introduction_thinned_onto_a_glued_wire():
    new, old = both(lambda s, p: s(f("f", [B], [A]), bot_intro_on(A),
                                   p(bot_elim(), f("g", [A], [C]))))
    assert_matches(new, old)


def test_anchors_from_two_parts_on_one_glued_wire():
    # both units are thinned onto the wire that passes through each part
    new, old = both(lambda s, p: s(
        f("f", [B], [A]), bot_intro_on(A),
        p(identity([Bot()]), bot_intro_on(A)),
        p(bot_elim(), bot_elim(), identity([A]))))
    assert_matches(new, old)
    (held,) = new._anchored.values()
    assert len(held) == 2


def test_a_thinned_part_used_twice():
    t = top_elim_on(A)
    new, old = both(lambda s, p: s(p(top_intro(), top_intro(),
                                     f("f", [B], [A])),
                                   p(identity([Top()]), t), t))
    assert_matches(new, old)


# -- pass-through wires and dagger boxes --------------------------------------

def test_pass_through_wires():
    g = f("g", [A], [B])
    new, old = both(lambda s, p: s(identity([A, C]), p(g, identity([C])),
                                   identity([B, C]), p(identity([B]), f(
                                       "k", [C], [A])), identity([B, A])))
    assert_matches(new, old)
    assert set(new.inputs).isdisjoint(new.outputs)


def test_identity_parts_repeated():
    i = identity([A, B])
    new, old = both(lambda s, p: p(s(i, i, i), i, s(i, _endo(), i)))
    assert_matches(new, old)


def test_dagger_boxes():
    inner = seq(f("f", [A], [B]), f("g", [B], [C]))
    box, back = dagger_box(inner), dagger_box(seq(inner, f("k", [C], [A])))
    new, old = both(lambda s, p: p(s(f("h", [Dagger(C)], [Dagger(C)]), box,
                                     back), box))
    assert_matches(new, old)


# -- random trees that repeat a subterm ---------------------------------------

_SHORT = st.lists(st.sampled_from([A, B, C]), max_size=2)


def _shared(term, seq_, par_, memo: dict) -> Circuit:
    """`test_circuit_builders._build`, with equal subterms built once and
    the one circuit used wherever they recur."""
    key = repr(term)
    if key not in memo:
        if term[0] == "gen":
            memo[key] = generator(*term[1:])
        elif term[0] == "id":
            memo[key] = identity(term[1])
        else:
            parts = [_shared(t, seq_, par_, memo) for t in term[1]]
            memo[key] = (seq_ if term[0] == "seq" else par_)(*parts)
    return memo[key]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dom=_SHORT, cod=_SHORT)
def test_trees_with_repeated_subterms_match_the_oracle(data, dom, cod):
    t = _term(data, dom, cod, depth=2)
    e = _term(data, cod, cod, depth=2)
    term = ("par", [("seq", [t, e, e]), ("par", [("seq", [t, e]), t])])
    new = _shared(term, seq, par, {})
    old = _shared(term, oracle.seq, oracle.par, {})
    assert_matches(new, old)


# -- cost ------------------------------------------------------------------------

def _redrawn_ids(b: Circuit) -> set[str]:
    """The nodes of `b` that consume one of its inputs or are thinned onto
    one: what `seq(a, b)` redraws."""
    out = {b.consumer(w) for w in b.inputs} - {None}
    return out.union(*(b._anchored.get(w, ()) for w in b.inputs))


def _cost_cases():
    chain = seq(*[f(f"g{k}", [A, B], [A, B]) for k in range(20)],
                par(tensor_intro(A, B), identity([])))
    yield chain, seq(tensor_elim(A, B), swap(A, B),
                     *[f(f"h{k}", [B, A], [B, A]) for k in range(20)])
    yield (seq(_net(), par(top_intro(), top_intro(), identity([B, A]))),
           seq(par(identity([Top()]), top_elim_on(B), identity([A])),
               par(top_elim_on(B), identity([A]))))
    yield _net(), seq(identity([B, A]), swap(B, A), _endo(),
                      par(identity([A]), seq(f("u", [B], [Dagger(B)]),
                                             dagger_box(f("d", [C], [B])))))


@pytest.mark.parametrize("a, b", list(_cost_cases()))
def test_seq_redraws_only_nodes_on_glued_wires(a, b):
    c = seq(a, b)
    assert_indexed(c)
    redrawn = _redrawn_ids(b)
    assert all(c.nodes[nid] is n for nid, n in a.nodes.items())
    assert all(c.nodes[nid] is n for nid, n in b.nodes.items()
               if nid not in redrawn)
    old = {id(n) for n in (*a.nodes.values(), *b.nodes.values())}
    new = [n for n in c.nodes.values() if id(n) not in old]
    anchors = sum(len(b._anchored.get(w, ())) for w in b.inputs)
    assert len(new) == len(redrawn) <= len(b.inputs) + anchors
    assert same_layout(c, oracle.seq(a, b))


@pytest.mark.parametrize("a, b", list(_cost_cases()))
def test_par_redraws_nothing(a, b):
    c = par(a, b)
    assert_indexed(c)
    for part in (a, b):
        assert all(c.nodes[nid] is n for nid, n in part.nodes.items())
    assert c.wires.keys() == a.wires.keys() | b.wires.keys()
    assert same_layout(c, oracle.par(a, b))


@pytest.fixture
def constructed(monkeypatch) -> list[int]:
    """How many `Node` objects have been made."""
    count = [0]
    init = Node.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(Node, "__init__", counted)
    return count


def test_a_proof_of_n_rules_makes_nodes_linear_in_n(constructed):
    # each round glues three nodes under the whole circuit so far; copying
    # every part, as the oracle does, makes about 3n²/2 nodes in n rounds
    c = identity([A, B])
    rounds = 200
    for _ in range(rounds):
        c = seq(c, par(f("f", [A], [A]), identity([B])), swap(A, B),
                swap(B, A))
    assert len(c.nodes) == 3 * rounds
    assert constructed[0] <= 2 * 3 * rounds
    assert_indexed(c)


# -- substitute ------------------------------------------------------------------

def test_substitute_draws_ids_the_circuit_lacks():
    sub = seq(generator("a", [A], [A]), generator("b", [A], [A]))
    # a parsed chain of five generators on wires the counter hands out next
    k = int(fresh_wire()[1:]) + 1
    wires = [f"w{k + i}" for i in range(6)]
    chain = parse(json.dumps({
        "wires": [{"id": w, "type": {"atom": "A"}} for w in wires],
        "nodes": [{"kind": "gen", "name": name, "ports": [x, y]}
                  for name, x, y in zip("ghfij", wires, wires[1:])],
        "inputs": wires[:1], "outputs": wires[-1:]}))
    s = substitute(chain, {"f": sub})
    assert len(s.wires) == 7 and len(s.nodes) == 6
    assert_indexed(s)


def test_copies_draw_ids_the_pool_lacks():
    # the copy of the second x would take the counter's next ids, which
    # the parsed part holds
    x = _net()
    y = ahead(x)
    c = par(y, x, x)
    assert_indexed(c)
    assert len(c.wires) == 3 * len(x.wires)
    assert len(c.nodes) == 3 * len(x.nodes)
