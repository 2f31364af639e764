"""Circuit construction, well-formedness checks, and serialization."""
from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldckit.circuit import (Circuit, Node, compose, dagger, dagger_box,
                            generator, identity, isomorphic, mirror, par,
                            permutation, reverse, seq, substitute, swap,
                            tensor_elim, tensor_intro)
from ldckit.errors import IllTyped, SchemaError, TypeMismatch
from ldckit.io import parse, serialize
from ldckit.objects import Atom, Bot, Par, Tensor, Top

import circuit_oracle
from test_validity import circuits

A, B, C, D = Atom("A"), Atom("B"), Atom("C"), Atom("D")

atoms = st.sampled_from([A, B, C, Top(), Bot()])
object_exprs = st.recursive(
    atoms,
    lambda inner: st.builds(Tensor, inner, inner) | st.builds(Par, inner, inner),
    max_leaves=4)


class TestConstruction:
    def test_identity_boundary(self):
        c = identity([A, B])
        assert c.input_types() == (A, B)
        assert c.output_types() == (A, B)
        assert not c.nodes

    def test_generator_boundary(self):
        c = generator("f", [A, B], [C])
        assert c.input_types() == (A, B)
        assert c.output_types() == (C,)
        (node,) = c.nodes.values()
        assert node.kind == "gen" and node.name == "f"

    def test_compose_type_mismatch(self):
        with pytest.raises(TypeMismatch):
            compose(generator("f", [A], [B]), generator("g", [C], [A]))

    def test_seq_threads_wires(self):
        c = seq(generator("f", [A], [B]), generator("g", [B], [C]))
        assert c.input_types() == (A,)
        assert c.output_types() == (C,)
        assert len(c.nodes) == 2

    def test_par_concatenates_boundaries(self):
        c = par(generator("f", [A], [B]), identity([C]))
        assert c.input_types() == (A, C)
        assert c.output_types() == (B, C)

    def test_swap_exchanges_types(self):
        c = swap(A, B)
        assert c.input_types() == (A, B)
        assert c.output_types() == (B, A)

    def test_permutation_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permutation([A, B], [0, 0])

    def test_structural_nodes_have_composite_boundary(self):
        c = tensor_intro(A, B)
        assert c.output_types() == (Tensor(A, B),)
        assert tensor_elim(A, B).input_types() == (Tensor(A, B),)

    def test_dagger_box_reverses_boundary(self):
        c = dagger_box(generator("f", [A], [B, C]))
        assert [type(t).__name__ for t in c.input_types()] == ["Dagger"] * 2
        assert len(c.input_types()) == 2
        assert len(c.output_types()) == 1

    def test_dangling_wire_rejected(self):
        g = generator("f", [A], [B])
        with pytest.raises(IllTyped):
            Circuit(dict(g.wires) | {"w_extra": C}, dict(g.nodes),
                    list(g.inputs), list(g.outputs))


class TestTopoOrder:
    def test_respects_dataflow(self):
        c = seq(generator("f", [A], [B]), generator("g", [B], [C]))
        order = c.topo_order()
        names = [c.nodes[nid].name for nid in order]
        assert names == ["f", "g"]


@st.composite
def circuit_pairs(draw):
    """A random net and a renamed, reordered copy of it, perhaps with one
    anchor moved, two same-typed outputs exchanged or two same-typed inputs
    of a generator exchanged; or two independent nets."""
    c, _ = draw(circuits())
    how = draw(st.sampled_from(["copy", "anchor", "outputs", "ports",
                                "other"]))
    if how == "other":
        return c, draw(circuits())[0]
    rnd = draw(st.randoms(use_true_random=False))
    ren = {w: f"x{i}" for i, w in enumerate(rnd.sample(list(c.wires),
                                                       len(c.wires)))}
    wires = {ren[w]: t for w, t in c.wires.items()}
    nodes = {f"m{i}": n.rewired(ren) for i, n in
             enumerate(rnd.sample(list(c.nodes.values()), len(c.nodes)))}
    outputs = [ren[w] for w in c.outputs]
    anchored = [i for i, n in nodes.items() if n.thin is not None]
    if how == "anchor" and anchored:
        i = rnd.choice(anchored)
        nodes[i] = replace(nodes[i], thin=rnd.choice(sorted(wires)))
    pairs = [(i, j) for i, n in nodes.items() if n.kind == "gen"
             for j in range(len(n.ins) - 1)
             if wires[n.ins[j]] == wires[n.ins[j + 1]]]
    if how == "ports" and pairs:
        i, j = rnd.choice(pairs)
        ins = list(nodes[i].ins)
        ins[j:j + 2] = ins[j + 1], ins[j]
        nodes[i] = replace(nodes[i], ins=tuple(ins))
    same = [j for j in range(len(outputs) - 1)
            if wires[outputs[j]] == wires[outputs[j + 1]]]
    if how == "outputs" and same:
        j = rnd.choice(same)
        outputs[j:j + 2] = outputs[j + 1], outputs[j]
    return c, Circuit(wires, nodes, [ren[w] for w in c.inputs], outputs)


class TestIsomorphism:
    def test_renaming_invariance(self):
        c = seq(generator("f", [A], [B]), generator("g", [B], [C]))
        wire_map = {w: f"ren_{i}" for i, w in enumerate(c.wires)}
        renamed = Circuit({wire_map[w]: t for w, t in c.wires.items()},
                          {f"ren_{i}": n.rewired(wire_map)
                           for i, n in enumerate(c.nodes.values())},
                          [wire_map[w] for w in c.inputs],
                          [wire_map[w] for w in c.outputs])
        assert isomorphic(c, renamed)

    def test_distinguishes_generator_names(self):
        assert not isomorphic(generator("f", [A], [B]),
                              generator("g", [A], [B]))

    def test_distinguishes_wiring(self):
        straight = identity([A, A])
        crossed = swap(A, A)
        assert not isomorphic(straight, crossed)

    def test_same_name_different_port_types(self):
        # node signatures that tie on kind and name hold Atoms, which do
        # not order
        c = par(generator("f", [A], [B]), generator("f", [C], [D]))
        assert isomorphic(c, c)
        assert not isomorphic(
            c, par(generator("f", [A], [B]), generator("f", [C], [C])))

    def test_long_chain_matches_without_recursing(self):
        # the backtracking search once recursed per node and raised
        # RecursionError from about a thousand nodes
        def chain(names):
            return seq(*(generator(f, [A], [A]) for f in names))
        names = [f"f{i % 3}" for i in range(1200)]
        assert isomorphic(chain(names), chain(names))
        assert not isomorphic(chain(names), chain(names[:-1] + ["g"]))
        assert not isomorphic(chain(names), chain(names[1:] + names[:1]))

    def test_failed_candidate_releases_its_wires(self):
        # Two closed parts: p feeds m straight in one, crossed in the other.
        # In c2 the crossed part comes first, so the straight p is first
        # tried against the crossed p; m then binds its first input before
        # its second conflicts, and that binding must not outlive the try.
        def part(tag, crossed):
            x, y, z = (f"{v}{tag}" for v in "xyz")
            return ({x: A, y: A, z: A},
                    {f"{tag}0": Node("gen", (), (z, x) if crossed else (x, z),
                                     name="p"),
                     f"{tag}1": Node("gen", (), (y,), name="s"),
                     f"{tag}2": Node("gen", (y, x, z), (), name="m")})

        def closed(*parts):
            return Circuit({w: t for ws, _ in parts for w, t in ws.items()},
                           {n: m for _, ns in parts for n, m in ns.items()},
                           [], [])
        c1 = closed(part("a", False), part("b", True))
        c2 = closed(part("a", True), part("b", False))
        assert isomorphic(c1, c2)

    @settings(max_examples=100, deadline=None)
    @given(pair=st.data())
    def test_agrees_with_the_reference(self, pair):
        c, d = pair.draw(circuit_pairs())
        for x, y in ((c, d), (d, c)):
            assert isomorphic(x, y) == circuit_oracle.isomorphic(x, y)


class TestReverse:
    def test_flips_boundary_nodes_and_names(self):
        c = seq(generator("f", [A], [B, C]), swap(B, C))
        r = reverse(c, {"f": "g"})
        assert r.input_types() == (C, B)
        assert r.output_types() == (A,)
        assert isomorphic(r, seq(swap(C, B), generator("g", [B, C], [A])))

    def test_unlisted_names_are_kept(self):
        assert isomorphic(reverse(generator("f", [A], [B]), {}),
                          generator("f", [B], [A]))

    def test_dagger_renames_each_generator_to_and_from_its_dagger(self):
        c = seq(generator("m", [B, B], [B]), generator("f_dag", [B], [C]))
        assert isomorphic(dagger(c), seq(generator("f", [C], [B]),
                                         generator("m_dag", [B], [B, B])))

    def test_mirror_reflects_boundary_ports_and_names(self):
        c = seq(par(generator("f", [A], [B, C]), identity([D])),
                par(identity([B]), swap(C, D)))
        r = mirror(c, {"f": "g"})
        assert r.input_types() == (D, A)
        assert r.output_types() == (C, D, B)
        assert isomorphic(r, seq(par(identity([D]), generator("g", [A],
                                                              [C, B])),
                                 par(swap(D, C), identity([B]))))
        assert isomorphic(mirror(generator("f", [A, B], [C]), {}),
                          generator("f", [B, A], [C]))

    @pytest.mark.parametrize("build", [lambda: tensor_intro(A, B),
                                       lambda: dagger_box(identity([A]))])
    def test_other_node_kinds_are_refused(self, build):
        with pytest.raises(IllTyped):
            reverse(build(), {})
        with pytest.raises(IllTyped):
            dagger(build())
        with pytest.raises(IllTyped):
            mirror(build(), {})


class TestSubstitute:
    def test_generators_missing_from_the_table_are_copied(self):
        c = seq(generator("f", [A], [B]), generator("g", [B], [C]))
        s = substitute(c, {"f": seq(generator("p", [A], [D]),
                                    generator("q", [D], [B]))})
        assert [n.name for n in s.nodes.values()] == ["p", "q", "g"]
        g_id = next(n for n, node in c.nodes.items() if node.name == "g")
        assert s.nodes[g_id] == c.nodes[g_id]
        assert isomorphic(substitute(c, {"h": generator("h", [A], [A])}), c)

    def test_replacement_nodes_land_at_the_generator(self):
        c = seq(generator("f", [A], [B]), generator("g", [B], [C]),
                generator("h", [C], [D]))
        s = substitute(c, {"g": seq(generator("p", [B], [A, A]), swap(A, A),
                                    generator("q", [A, A], [C]))})
        assert [n.name for n in s.nodes.values()] == ["f", "p", None, "q",
                                                      "h"]
        assert isomorphic(s, seq(generator("f", [A], [B]),
                                 generator("p", [B], [A, A]), swap(A, A),
                                 generator("q", [A, A], [C]),
                                 generator("h", [C], [D])))

    def test_replacements_are_not_substituted_again(self):
        c = par(generator("f", [A], [B]), generator("g", [C], [C]))
        table = {"f": seq(generator("f", [A], [B]), generator("g", [B], [B])),
                 "g": seq(generator("f", [C], [C]), generator("g", [C], [C]))}
        assert isomorphic(substitute(c, table), par(table["f"], table["g"]))

    @pytest.mark.parametrize("replacement", [
        lambda: generator("p", [A], [C]),
        lambda: generator("p", [A, A], [B]),
        lambda: generator("p", [A], []),
        # a parsed generator carries no signature of its own to check
        lambda: parse(serialize(generator("p", [A], [C]))),
    ])
    def test_replacement_with_the_wrong_boundary_is_refused(self,
                                                            replacement):
        c = seq(generator("f", [A], [B]), generator("g", [B], [C]))
        with pytest.raises(IllTyped):
            substitute(c, {"f": replacement()})

    def test_replacement_passing_a_wire_through_is_refused(self):
        c = seq(generator("f", [A], [A]), generator("g", [A], [B]))
        with pytest.raises(IllTyped):
            substitute(c, {"f": identity([A])})


class TestSerialization:
    def test_corpus_round_trip(self, corpus):
        for name, circuit, _ in corpus:
            again = parse(serialize(circuit))
            assert isomorphic(circuit, again), name

    def test_schema_shape(self):
        doc = json.loads(serialize(generator("f", [A], [B])).decode())
        assert set(doc) >= {"wires", "nodes", "inputs", "outputs"}
        (node,) = doc["nodes"]
        assert node["kind"] == "gen" and node["name"] == "f"

    def test_rejects_unknown_kind(self):
        doc = json.loads(serialize(identity([A])).decode())
        doc["nodes"] = [{"kind": "mystery", "ports": []}]
        with pytest.raises(SchemaError):
            parse(json.dumps(doc).encode())

    @pytest.mark.parametrize("patch", [
        {"wires": 5},
        {"inputs": [[1]]},
        {"outputs": [[1]]},
        {"inputs": 5},
        {"wires": [{"id": [1], "type": {"atom": "A"}}]},
        {"nodes": [{"kind": ["gen"], "ports": []}]},
        {"nodes": [{"kind": "gen", "name": "f", "ports": 5}]},
        {"nodes": [{"kind": "gen", "name": "f", "ports": [["a"]]}]},
        {"nodes": [{"kind": "gen", "name": [1], "ports": []}]},
        {"nodes": [{"kind": "top_elim", "ports": ["t"], "thin": [1]}]},
    ])
    def test_rejects_malformed_documents(self, patch):
        doc = {"wires": [{"id": "t", "type": {"top": {}}},
                         {"id": "a", "type": {"atom": "A"}}],
               "nodes": [{"kind": "top_elim", "ports": ["t"], "thin": "a"}],
               "inputs": ["t", "a"], "outputs": ["a"]}
        parse(json.dumps(doc).encode())
        doc |= patch
        with pytest.raises(SchemaError):
            parse(json.dumps(doc).encode())

    def test_wires_between_generators_run_from_the_earlier_node(self):
        doc = {"wires": [{"id": w, "type": {"atom": "A"}}
                         for w in ("a", "b", "c")],
               "nodes": [{"kind": "gen", "name": "g", "ports": ["b", "c"]},
                         {"kind": "gen", "name": "f", "ports": ["a", "b"]}],
               "inputs": ["a"], "outputs": ["c"]}
        c = parse(json.dumps(doc).encode())
        assert (c.nodes["n0"].ins, c.nodes["n0"].outs) == ((), ("b", "c"))
        assert (c.nodes["n1"].ins, c.nodes["n1"].outs) == (("a", "b"), ())

    def test_nested_dagger_boxes_parse_each_level_once(self, monkeypatch):
        import ldckit.io as io
        c = generator("f", [A], [B])
        for _ in range(14):
            c = dagger_box(c)
        text = serialize(c)
        calls = []
        inner = io._circuit_from_json

        def counting(doc):
            calls.append(1)
            return inner(doc)
        monkeypatch.setattr(io, "_circuit_from_json", counting)
        again = parse(text)
        assert len(calls) == 15
        assert isomorphic(c, again)

    @settings(max_examples=50, deadline=None)
    @given(dom=st.lists(object_exprs, max_size=3),
           cod=st.lists(object_exprs, max_size=3))
    def test_generator_round_trip(self, dom, cod):
        c = generator("f", dom, cod)
        assert isomorphic(c, parse(serialize(c)))

    @settings(max_examples=50, deadline=None)
    @given(types=st.lists(object_exprs, min_size=1, max_size=4))
    def test_identity_round_trip(self, types):
        c = identity(types)
        again = parse(serialize(c))
        assert again.input_types() == tuple(types)
        assert again.output_types() == tuple(types)
