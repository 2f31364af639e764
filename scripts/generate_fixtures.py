#!/usr/bin/env python3
"""Regenerate the circuit conformance corpus in fixtures/.  The built-in
gadgets are not files: `ldckit.fixtures` builds each one on demand.

    PYTHONPATH=src python scripts/generate_fixtures.py
"""
import itertools
import json
from pathlib import Path

from ldckit.circuit import (bot_intro_on, generator, identity, par, par_elim,
                            par_intro, seq, swap, tensor_elim, tensor_intro,
                            top_elim_on, top_intro)
from ldckit.io import serialize
from ldckit.objects import Atom, Bot, Par, Tensor, Top
from ldckit.validity import validate

A, B, C = Atom("A"), Atom("B"), Atom("C")


def left_distributor():
    return seq(tensor_elim(A, Par(B, C)),
               par(identity([A]), par_elim(B, C)),
               par(tensor_intro(A, B), identity([C])),
               par_intro(Tensor(A, B), C))


def reverse_distributor():
    return seq(par_elim(Tensor(A, B), C),
               par(tensor_elim(A, B), identity([C])),
               par(identity([A]), par_intro(B, C)),
               tensor_intro(A, Par(B, C)))


CORPUS = [
    ("left-distributor", left_distributor(), True,
     "A*(B+C) -> (A*B)+C; boxes collapse to one"),
    ("reverse-distributor", reverse_distributor(), False,
     "(A*B)+C -> A*(B+C); boxing gets stuck"),
    ("single-wire", identity([A]), True, "a bare wire is valid"),
    ("tensor-intro", tensor_intro(A, B), True, "initial box by itself"),
    ("par-elim", par_elim(A, B), True, "initial box by itself"),
    ("tensor-elim-alone", tensor_elim(A, B), False,
     "eliminator with no box to absorb it; denotes A*B -> A+B"),
    ("par-intro-alone", par_intro(A, B), False,
     "introduction with no box to absorb it"),
    ("tensor-roundtrip", seq(tensor_intro(A, B), tensor_elim(A, B)), False,
     "normalizes to two parallel wires; denotes the mix map A*B -> A+B"),
    ("par-roundtrip", seq(par_elim(A, B), par_intro(A, B)), True,
     "elimination absorbed after the intro box forms"),
    ("top-unit-elim", top_elim_on(A), True, "thinning-linked unit removal"),
    ("bot-unit-intro", bot_intro_on(A), True,
     "thinning-linked unit introduction"),
    ("top-intro-elim", seq(par(top_intro(), identity([A])),
                           top_elim_on(A)), True,
     "unit introduced and then cancelled against its thinning anchor"),
    ("symmetry", swap(A, B), False,
     "a bare crossing denotes the mix map A*B -> B+A"),
    ("swap-under-tensor", seq(tensor_elim(A, B), swap(A, B),
                              tensor_intro(B, A)), True,
     "crossing conjugated by tensor elim/intro: A*B -> B*A"),
    ("generator", generator("f", [A, B], [C]), True,
     "a generator is a component, hence an initial box"),
    ("generator-chain", seq(generator("f", [A], [B]),
                            generator("g", [B], [C])), True,
     "two boxes joined by one wire merge"),
    ("double-wire-generators", seq(generator("f", [A], [B, B]),
                                   generator("g", [B, B], [C])), False,
     "two boxes joined by two wires never merge"),
    ("two-parallel-wires", identity([A, B]), False,
     "two components cannot end in a single box"),
    ("unit-into-tensor", seq(par(top_intro(), identity([A])),
                             tensor_intro(Top(), A)), True,
     "A -> T*A"),
    ("bot-into-par", seq(bot_intro_on(A), par_intro(Bot(), A)), True,
     "A -> _|_+A"),
]


def renumbered(doc: dict, count=None) -> dict:
    """The circuit document `doc` with its wires renamed w0, w1, ... in
    listed order, and the wires of each dagger box's interior after them,
    so that the ids do not depend on what the process built before."""
    count = itertools.count() if count is None else count
    new = {w["id"]: f"w{next(count)}" for w in doc["wires"]}
    nodes = []
    for node in doc["nodes"]:
        node = dict(node, ports=[new[w] for w in node["ports"]])
        if "thin" in node:
            node["thin"] = new[node["thin"]]
        if "inner" in node:
            node["inner"] = renumbered(node["inner"], count)
        nodes.append(node)
    return {"wires": [dict(w, id=new[w["id"]]) for w in doc["wires"]],
            "nodes": nodes,
            "inputs": [new[w] for w in doc["inputs"]],
            "outputs": [new[w] for w in doc["outputs"]]}


def corpus() -> dict[str, str]:
    """The text of each corpus file, by file name."""
    out = {}
    for name, circuit, expect, note in CORPUS:
        verdict = validate(circuit).valid
        if verdict != expect:
            raise SystemExit(f"{name}: expected valid={expect}, "
                             f"checker says {verdict}")
        doc = renumbered(json.loads(serialize(circuit).decode()))
        doc["expect"] = "valid" if expect else "invalid"
        doc["note"] = note
        out[f"{name}.json"] = json.dumps(doc, indent=1) + "\n"
    return out


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    out = root / "fixtures"
    out.mkdir(exist_ok=True)
    for name, text in corpus().items():
        (out / name).write_text(text)
    print(f"wrote {len(CORPUS)} circuit fixtures to {out}")


if __name__ == "__main__":
    main()
