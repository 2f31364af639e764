"""`ldckit.circuit` alone knows a circuit's two formats: the table of node
kinds and the endpoint index.  `Circuit(...)` and `io.parse` type and split
the nodes of every kind as tests/circuit_oracle.py's one branch per kind
and port-count table do, refusing with the same error and message, and no
other module of the package reads a circuit's endpoint index."""
from __future__ import annotations

import json
import re
from pathlib import Path

from hypothesis import find, given, settings
from hypothesis import strategies as st

from ldckit.circuit import Circuit, Node, generator, identity
from ldckit.errors import LdcError
from ldckit.io import parse, serialize
from ldckit.objects import (Atom, Bot, Dagger, Par, Tensor, Top, dagger_of,
                            type_to_json)

import circuit_oracle as oracle

ROOT = Path(__file__).resolve().parent.parent
A, B = Atom("A"), Atom("B")
_TYPES = st.sampled_from([A, B, Tensor(A, B), Tensor(B, A), Par(A, B),
                          Top(), Bot(), Dagger(A)])

# The ports of a well-typed node of each kind on types a and b; a dagger
# box's follow its inner circuit.
_WELL_TYPED = {
    "gen": lambda a, b: ([a], [b]),
    "tensor_intro": lambda a, b: ([a, b], [Tensor(a, b)]),
    "tensor_elim": lambda a, b: ([Tensor(a, b)], [a, b]),
    "par_intro": lambda a, b: ([a, b], [Par(a, b)]),
    "par_elim": lambda a, b: ([Par(a, b)], [a, b]),
    "top_intro": lambda a, b: ([], [Top()]),
    "top_elim": lambda a, b: ([Top()], []),
    "bot_intro": lambda a, b: ([], [Bot()]),
    "bot_elim": lambda a, b: ([Bot()], []),
    "swap": lambda a, b: ([a, b], [b, a]),
}


@st.composite
def one_node(draw, dangling: bool = True,
             kinds: tuple[str, ...] = oracle.NODE_KINDS + ("cut",)):
    """A one-node circuit as (wires, nodes, inputs, outputs): a node of
    any of `kinds` (by default every kind, and one of none), on ports of
    nearly right, right or random counts and types, whose inputs and
    outputs are the boundary's.  Its anchor is none, one of its ports, a
    wire passed straight through or, when `dangling`, a missing wire, and
    so may one of its ports be."""
    kind = draw(st.sampled_from(kinds))
    a, b = draw(_TYPES), draw(_TYPES)
    inner = None
    if kind == "dagger_box":
        inner = draw(st.sampled_from([generator("f", [a], [b]),
                                      generator("g", [a, b], []),
                                      identity([a])]))
        tin = [dagger_of(t) for t in reversed(inner.output_types())]
        tout = [dagger_of(t) for t in reversed(inner.input_types())]
    else:
        tin, tout = _WELL_TYPED.get(kind, _WELL_TYPED["gen"])(a, b)
    for ts in (tin, tout):
        change = draw(st.sampled_from(["none", "none", "count", "type"]))
        if change == "count" and ts and draw(st.booleans()):
            del ts[draw(st.integers(0, len(ts) - 1))]
        elif change == "count":
            ts.insert(draw(st.integers(0, len(ts))), draw(_TYPES))
        elif change == "type" and ts:
            ts[draw(st.integers(0, len(ts) - 1))] = draw(_TYPES)
    ins = [f"i{k}" for k in range(len(tin))]
    outs = [f"o{k}" for k in range(len(tout))]
    wires = dict(zip(ins, tin)) | dict(zip(outs, tout)) | {"x": draw(_TYPES)}
    ports = ins + outs
    thin = draw(st.sampled_from([None, "x", *ports]
                                + (["gone"] if dangling else [])))
    if dangling and ports and draw(st.integers(0, 5)) == 0:
        ports[draw(st.integers(0, len(ports) - 1))] = "gone"
    name = draw(st.sampled_from(["f", None])) if kind == "gen" else None
    dom = draw(st.sampled_from([None, tuple(tin), (a,)]))
    node = Node(kind, tuple(ports[:len(ins)]), tuple(ports[len(ins):]),
                name, dom if kind == "gen" else None, None, thin, inner)
    return wires, {"n0": node}, ins + ["x"], outs + ["x"]


def _outcome(make) -> object:
    """The error class and message `make` raises, or "accepted"."""
    try:
        make()
    except LdcError as exc:
        return type(exc), str(exc)
    return "accepted"


@settings(max_examples=600, deadline=None)
@given(case=one_node())
def test_circuit_types_every_kind_as_its_branch_did(case):
    got = _outcome(lambda: Circuit(*case))
    assert got == _outcome(lambda: oracle.CheckedCircuit(*case))


def _document(wires, nodes, inputs, outputs) -> dict:
    (node,) = nodes.values()
    entry = {"kind": node.kind, "ports": list(node.ports())}
    if node.name is not None:
        entry["name"] = node.name
    if node.thin is not None:
        entry["thin"] = node.thin
    if node.inner is not None:
        entry["inner"] = json.loads(serialize(node.inner))
    return {"wires": [{"id": w, "type": type_to_json(t)}
                      for w, t in wires.items()],
            "nodes": [entry], "inputs": inputs, "outputs": outputs}


def _shape(c: Circuit) -> tuple:
    return (c.wires, c.inputs, c.outputs,
            [(nid, n.kind, n.ins, n.outs, n.name, n.thin)
             for nid, n in c.nodes.items()])


@settings(max_examples=600, deadline=None)
@given(case=one_node(dangling=False))
def test_parse_splits_every_kind_as_its_table_did(case):
    doc = _document(*case)
    got = _outcome(lambda: parse(json.dumps(doc)))
    assert got == _outcome(lambda: oracle.parse_one(doc))
    if got == "accepted":
        assert _shape(parse(json.dumps(doc))) == _shape(oracle.parse_one(doc))


def test_the_cases_reach_every_kind_both_ways():
    """The strategy makes circuits of every kind that are accepted and
    ones that are refused: a search for each, with the kind fixed, finds
    one."""
    search = settings(max_examples=5000, deadline=None, database=None)
    for kind in oracle.NODE_KINDS:
        for accepted in (True, False):
            find(one_node(kinds=(kind,)),
                 lambda case: (_outcome(lambda: Circuit(*case))
                               == "accepted") == accepted,
                 settings=search)


def test_only_circuit_reads_the_endpoint_index():
    private = re.compile(r"\b_(producers|consumers|anchored)\b")
    readers = [path.name for path in sorted(
        (ROOT / "src" / "ldckit").glob("*.py"))
        if path.name != "circuit.py" and private.search(path.read_text())]
    assert readers == []
