"""The builders assemble their circuits from checked parts and check nothing
again (`Circuit._assembled`).  Every circuit that they, `normalize` and
`expand_wire` make is one that the checking constructor accepts, with the
same producer and consumer maps and the same flow order; building a net by
`seq` and `par` runs no check, while the public constructor and `io.parse`
still refuse ill-typed input."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldckit.suites as suites
from ldckit.circuit import (Circuit, Node, dagger, generator, identity,
                            mirror, par, permutation, reverse, seq,
                            substitute, swap)
from ldckit.errors import IllTyped
from ldckit.exponential import induce_bang_monoid, retract_idempotent
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.io import parse
from ldckit.objects import Atom, Bot, Par, Tensor, Top
from ldckit.rewrite import expand_wire, normalize

from test_circuit_builders import _TYPES, _term, typed_permutations
from test_validity import circuits

A, B = Atom("A"), Atom("B")
EXPANDABLE = (Tensor, Par, Top, Bot)


def assert_checked(c: Circuit) -> None:
    """The checking constructor accepts `c` and its dagger boxes' insides,
    and indexes and orders them as `c` does: the same producer and
    consumer maps, anchor index and flow order."""
    for part in c.nested():
        again = Circuit(part.wires, part.nodes, part.inputs, part.outputs)
        assert again._producers == part._producers
        assert again._consumers == part._consumers
        assert again._anchored == part._anchored
        assert again.topo_order() == part.topo_order()


def assert_own_dicts(c: Circuit, *parts: Circuit) -> None:
    for p in parts:
        assert c.wires is not p.wires and c.nodes is not p.nodes


def _built(term) -> Circuit:
    """`test_circuit_builders._build`, asserting of every part."""
    if term[0] == "gen":
        c = generator(*term[1:])
    elif term[0] == "id":
        c = identity(term[1])
    else:
        parts = [_built(t) for t in term[1]]
        c = (seq if term[0] == "seq" else par)(*parts)
        assert_own_dicts(c, *parts)
    assert_checked(c)
    return c


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dom=_TYPES, cod=_TYPES)
def test_seq_par_trees(data, dom, cod):
    _built(_term(data, dom, cod, depth=3))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dom=_TYPES, cod=_TYPES)
def test_substituted_trees(data, dom, cod):
    c = _built(_term(data, dom, cod, depth=3))
    table = {n.name: _built(_term(data, list(n.dom), list(n.cod), depth=2))
             for n in c.nodes.values()}
    if any(set(sub.inputs) & set(sub.outputs) for sub in table.values()):
        with pytest.raises(IllTyped):
            substitute(c, table)
        return
    s = substitute(c, table)
    assert_own_dicts(s, c, *table.values())
    assert_checked(s)


@settings(max_examples=100, deadline=None)
@given(typed_permutations())
def test_permutations(case):
    assert_checked(permutation(*case))


def _gadgets():
    out = {name: load_gadget(name) for name in fixture_names()}
    qubit = load_gadget("qubit-zx")
    out["induced-qubit-zx"] = induce_bang_monoid(qubit, 2)
    out["retract-qubit-zx"] = retract_idempotent(qubit, 2)["gadget"]
    return out


@pytest.mark.parametrize("gname", list(fixture_names())
                         + ["induced-qubit-zx", "retract-qubit-zx"])
def test_suite_templates_and_their_flips(gname):
    g = _gadgets()[gname]
    flips = 0
    for suite in suites.SUITES.values():
        if not g.has(*suite.roles):
            continue
        for eq in suite.equations:
            for side in eq.build(g):
                assert_checked(side)
                if any(n.kind not in ("gen", "swap")
                       for n in side.nodes.values()):
                    continue
                rename = {name: name + "'" for name in side.generator_names}
                for flip in (reverse(side, rename), mirror(side, rename),
                             dagger(side)):
                    assert_own_dicts(flip, side)
                    assert_checked(flip)
                    flips += 1
                stub = {name: generator(name + "'", n.dom, n.cod)
                        for n in side.nodes.values()
                        if (name := n.name) is not None}
                assert_checked(substitute(side, stub))
    assert flips > 0


def _expanded(c: Circuit, picks) -> Circuit:
    for pick in picks:
        wires = sorted(w for w, t in c.wires.items()
                       if isinstance(t, EXPANDABLE))
        if not wires:
            break
        c = expand_wire(c, wires[pick % len(wires)])
        assert_checked(c)
    return c


@settings(max_examples=100, deadline=None)
@given(case=circuits(), picks=st.lists(st.integers(0, 99), max_size=4))
def test_expanded_and_normalized_generated_nets(case, picks):
    c = _expanded(case[0], picks)
    assert_checked(normalize(c))


def test_expanded_and_normalized_corpus(corpus):
    for _, c, _ in corpus:
        assert_checked(normalize(c))
        for w, t in c.wires.items():
            if isinstance(t, EXPANDABLE):
                expanded = expand_wire(c, w)
                assert_checked(expanded)
                assert_checked(normalize(expanded))


def test_normalize_refuses_a_cycle_closed_through_a_thinning_link():
    # the unit pair is linked by the anchor only; erasing it feeds the
    # tensor elimination's output back into the introduction upstream
    T, TA = Top(), Tensor(Top(), A)
    c = Circuit({"t": T, "a": A, "ta": TA, "tb": TA, "x": T, "y": A},
                {"n0": Node("top_intro", (), ("t",)),
                 "n1": Node("tensor_intro", ("t", "a"), ("ta",)),
                 "n2": Node("gen", ("ta",), ("tb",), name="f"),
                 "n3": Node("tensor_elim", ("tb",), ("x", "y")),
                 "n4": Node("top_elim", ("x",), (), thin="t")},
                ["a"], ["y"])
    with pytest.raises(IllTyped, match="cycle"):
        normalize(c)


# -- what is checked, and how often --------------------------------------------

@pytest.fixture
def checks(monkeypatch) -> list[int]:
    """The size of each circuit that `Circuit._check` is run on."""
    sizes: list[int] = []
    check = Circuit._check

    def counted(self):
        sizes.append(len(self.nodes))
        check(self)
    monkeypatch.setattr(Circuit, "_check", counted)
    return sizes


def test_building_a_net_by_seq_and_par_checks_nothing(checks):
    c = identity([A, B])
    for _ in range(40):
        c = seq(c, par(generator("f", [A], [A]), generator("g", [B], [B])),
                swap(A, B), par(generator("h", [B], [B]), identity([A])),
                swap(B, A))
    assert len(c.nodes) == 200
    assert checks == []
    assert_checked(c)
    assert checks == [200]


def test_public_constructor_and_parse_still_check(checks):
    with pytest.raises(IllTyped):
        Circuit({"a": A, "b": B}, {"n": Node("gen", ("a",), ("b",))},
                ["a"], ["b"])
    doc = {"wires": [{"id": "a", "type": {"atom": "A"}},
                     {"id": "b", "type": {"atom": "B"}},
                     {"id": "ab", "type": {"par": [{"atom": "A"},
                                                   {"atom": "B"}]}}],
           "nodes": [{"kind": "tensor_intro", "ports": ["a", "b", "ab"]}],
           "inputs": ["a", "b"], "outputs": ["ab"]}
    with pytest.raises(IllTyped):
        parse(json.dumps(doc))
    assert checks == [1, 1]


def test_generator_without_a_name_is_refused(checks):
    with pytest.raises(IllTyped):
        generator(None, [A], [B])
    assert checks == []
