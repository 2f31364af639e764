"""The one-pass circuit builders against the pairwise builders they replace
(tests/circuit_oracle.py): every suite template, random permutations and
random seq/par trees come out isomorphic, with the same wire and node
order, and evaluate bit for bit the same."""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldckit.suites as suites
from ldckit.circuit import (Circuit, generator, identity, isomorphic, par,
                            permutation, seq)
from ldckit.exponential import induce_bang_monoid, retract_idempotent
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.model import ModelEnv, evaluate
from ldckit.objects import Atom

import circuit_oracle as oracle

A, B, C = Atom("A"), Atom("B"), Atom("C")


def same_layout(c1: Circuit, c2: Circuit) -> bool:
    """c1 and c2 are one circuit up to ids, with wires and nodes inserted
    in the same order; evaluation, which walks both orders, then builds the
    same contraction."""
    if len(c1.wires) != len(c2.wires) or len(c1.nodes) != len(c2.nodes):
        return False
    wire_map = dict(zip(c1.wires, c2.wires))
    return (all(c1.wires[w] == c2.wires[v] for w, v in wire_map.items())
            and all(n1.rewired(wire_map) == n2 for n1, n2
                    in zip(c1.nodes.values(), c2.nodes.values()))
            and [wire_map[w] for w in c1.inputs] == list(c2.inputs)
            and [wire_map[w] for w in c1.outputs] == list(c2.outputs))


# -- suite templates ----------------------------------------------------------

def _gadgets():
    out = {name: load_gadget(name) for name in fixture_names()}
    qubit = load_gadget("qubit-zx")
    out["induced-qubit-zx"] = induce_bang_monoid(qubit, 2)
    out["retract-qubit-zx"] = retract_idempotent(qubit, 2)["gadget"]
    return out


@pytest.fixture(scope="module")
def gadgets():
    return _gadgets()


def _oracle_templates(monkeypatch, eq, g):
    with monkeypatch.context() as m:
        m.setattr(suites, "seq", oracle.seq)
        m.setattr(suites, "par", oracle.par)
        m.setattr(suites, "permutation", oracle.permutation)
        return eq.build(g)


@pytest.mark.parametrize("gname", list(fixture_names())
                         + ["induced-qubit-zx", "retract-qubit-zx"])
def test_suite_templates_match_the_oracle(gname, gadgets, monkeypatch):
    g = gadgets[gname]
    env = suites.suite_env(g)
    checked = 0
    for suite in suites.SUITES.values():
        if not g.has(*suite.roles):
            continue
        for eq in suite.equations:
            new = eq.build(g)
            old = _oracle_templates(monkeypatch, eq, g)
            for c_new, c_old in zip(new, old):
                where = (suite.name, eq.label)
                assert isomorphic(c_new, c_old), where
                assert same_layout(c_new, c_old), where
                assert np.array_equal(evaluate(c_new, env),
                                      evaluate(c_old, env)), where
                checked += 1
    assert checked > 0


# -- permutations -------------------------------------------------------------

@st.composite
def typed_permutations(draw):
    types = draw(st.lists(st.sampled_from([A, B, C]), max_size=6))
    order = draw(st.permutations(range(len(types))))
    return types, order


@settings(max_examples=100, deadline=None)
@given(typed_permutations())
def test_permutation_matches_the_oracle(case):
    types, order = case
    new = permutation(types, order)
    old = oracle.permutation(types, order)
    assert isomorphic(new, old)
    assert same_layout(new, old)
    inversions = sum(order[i] > order[j] for i in range(len(order))
                     for j in range(i + 1, len(order)))
    assert len(new.nodes) == inversions
    assert all(n.kind == "swap" for n in new.nodes.values())
    assert new.output_types() == tuple(types[i] for i in order)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([A, B, C]), max_size=40).flatmap(
    lambda types: st.tuples(st.just(types),
                            st.permutations(range(len(types))))))
def test_permutation_draws_the_rescanning_swaps(case):
    # the scan that resumes one place back emits the swaps, wires and node
    # order of the scan that restarts from position 0
    types, order = case
    assert same_layout(permutation(types, order),
                       oracle.rescanning_permutation(types, order))


def test_reversal_of_400_wires_within_budget():
    # 79800 symmetries in 0.5-0.85 s on a shared 2-vCPU host, most of it
    # drawing the nodes (the search for the swaps takes 0.04 s); the
    # rescan from position 0 after each swap took 1.4-2.4 s.  The better
    # of two runs is timed.
    types = [A, B] * 200
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        c = permutation(types, list(range(399, -1, -1)))
        times.append(time.perf_counter() - t0)
    assert len(c.nodes) == 400 * 399 // 2
    assert c.output_types() == tuple(reversed(types))
    assert min(times) < 1.2


# -- seq/par trees ------------------------------------------------------------

_TYPES = st.lists(st.sampled_from([A, B, C]), max_size=3)


def _term(data, dom: list, cod: list, depth: int):
    """A random seq/par tree of generators and identities from dom to cod,
    as nested tuples."""
    shapes = ["gen"] + (["id"] if dom == cod else [])
    if depth > 0:
        shapes += ["seq", "par"]
    shape = data.draw(st.sampled_from(shapes))
    if shape == "gen":
        # one name per signature, so that one matrix serves every copy
        name = data.draw(st.sampled_from("fg")) + "".join(
            t.name for t in dom) + "_" + "".join(t.name for t in cod)
        return ("gen", name, dom, cod)
    if shape == "id":
        return ("id", dom)
    if shape == "seq":
        mids = data.draw(st.lists(_TYPES, max_size=2))
        bounds = [dom] + mids + [cod]
        return ("seq", [_term(data, a, b, depth - 1)
                        for a, b in zip(bounds, bounds[1:])])
    k = data.draw(st.integers(1, 3))
    di, ci = _cuts(data, len(dom), k), _cuts(data, len(cod), k)
    return ("par", [_term(data, dom[a:b], cod[c:d], depth - 1)
                    for a, b, c, d in zip(di, di[1:], ci, ci[1:])])


def _cuts(data, n: int, k: int) -> list[int]:
    """Bounds of k consecutive, possibly empty, slices of range(n)."""
    inner = data.draw(st.lists(st.integers(0, n), min_size=k - 1,
                               max_size=k - 1))
    return [0] + sorted(inner) + [n]


def _build(term, seq_, par_) -> Circuit:
    if term[0] == "gen":
        return generator(*term[1:])
    if term[0] == "id":
        return identity(term[1])
    parts = [_build(t, seq_, par_) for t in term[1]]
    return (seq_ if term[0] == "seq" else par_)(*parts)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dom=_TYPES, cod=_TYPES)
def test_seq_par_trees_match_the_oracle(data, dom, cod):
    term = _term(data, dom, cod, depth=3)
    new = _build(term, seq, par)
    old = _build(term, oracle.seq, oracle.par)
    assert isomorphic(new, old)
    assert same_layout(new, old)
    env = ModelEnv.make({"A": 2, "B": 1, "C": 3})
    rng = np.random.default_rng(0)
    for n in new.nodes.values():
        rows = int(np.prod([env.atoms[t.name][0] for t in n.cod]))
        cols = int(np.prod([env.atoms[t.name][0] for t in n.dom]))
        env.assign(n.name, rng.standard_normal((rows, cols)))
    assert np.array_equal(evaluate(new, env), evaluate(old, env))
