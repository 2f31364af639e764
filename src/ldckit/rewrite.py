"""Oriented circuit rewrites.

A redex is a pair of nodes that meet as one row of `_REDEXES` says: an
introduction feeding the matching elimination (for the tensor, par and both
units), an elimination whose two outputs feed the matching introduction in
order, or a unit pair linked by a thinning anchor.  Every row is erased by
the same rule: drop the pair, delete the wires that one node produces and
the other consumes, and merge the pair's remaining inputs with its remaining
outputs in order, keeping the input-side ids.  A row fires only when no node
outside the pair is thinned onto a wire that links the two.

`expand_wire` reads the equalities the other way: it replaces a wire by the
pair of the row that erases back to one wire of its type, so expanding a
wire and normalizing returns the original circuit.

Both edit a copy of the circuit's indexed graph, a `circuit._Pool`, whose
`drop`, `merge` and `add` keep each wire's producer, consumer and thinned
nodes in step.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .circuit import Circuit, Node, _Pool, _unused, fresh_node, fresh_wire
from .errors import NotExpandable
from .objects import Bot, Par, Tensor, Top

# (first kind, second kind, linked by an anchor, type erased to).  A
# port-linked second node consumes exactly the first's outputs, in order; an
# anchor-linked second is thinned onto the first's only port.  The rows with
# a type erase to one wire of that type: `expand_wire` inserts their pairs.
_REDEXES = (
    ("top_intro", "top_elim", False, None),
    ("bot_intro", "bot_elim", False, None),
    ("tensor_intro", "tensor_elim", False, None),
    ("par_intro", "par_elim", False, None),
    ("tensor_elim", "tensor_intro", False, Tensor),
    ("par_elim", "par_intro", False, Par),
    ("top_intro", "top_elim", True, Top),
    ("bot_elim", "bot_intro", True, Bot),
)


def _partner(g: _Pool, nid: str) -> Optional[str]:
    """The second node of a redex whose first node is `nid`, if any."""
    n = g.nodes[nid]
    for first, second, by_anchor, _ in _REDEXES:
        if n.kind != first:
            continue
        links = n.ports() if by_anchor else n.outs
        if by_anchor:
            held = g.anchored.get(links[0], ())
            other = held[0] if len(held) == 1 else None
        else:
            other = g.consumers.get(links[0])
        if other is None or g.nodes[other].kind != second or \
                not by_anchor and g.nodes[other].ins != n.outs:
            continue
        if all(set(g.anchored.get(w, ())) <= {nid, other} for w in links):
            return other
    return None


def _erase(g: _Pool, outputs: list[str], output_at: dict[str, int],
           *pair_ids: str) -> list[str]:
    """Erase a redex from `g`, renaming the boundary outputs it merges
    away; returns the wires whose neighbours changed."""
    pair = [g.drop(nid) for nid in pair_ids]
    ins = [w for n in pair for w in n.ins]
    outs = [w for n in pair for w in n.outs]
    dead = set(ins) & set(outs)
    for w in dead:
        del g.wires[w]
    keep = [w for w in ins if w not in dead]
    glue = dict(zip([w for w in outs if w not in dead], keep))
    for gone, k in glue.items():
        if gone in output_at:
            i = output_at[k] = output_at.pop(gone)
            outputs[i] = k
    g.merge(glue)
    return [w for w in [n.thin for n in pair] + keep if w in g.wires]


def normalize(c: Circuit) -> Circuit:
    """Erase redexes until none remains.  One indexed graph (a
    `circuit._Pool` copied from `c`) is rewritten in place: every node is
    tried once as the first node of a redex, in topological order, and
    after each erasure the producers and consumers of the wires it merged
    or released are tried again.  Every erasure removes two nodes, so the
    process terminates; one `Circuit` is built at the end, with its index
    built afresh, since a merged wire's anchors need not be in node order,
    and `c` itself is returned when nothing was erased.  Erasures keep
    every wire typed with one producer and one consumer, so the result is
    checked for cycles only: a thinning link is no flow edge, and merging
    the wires of a pair that it links can close one, which raises
    `IllTyped`."""
    g = _Pool(c)
    outputs = list(c.outputs)
    output_at = {w: i for i, w in enumerate(outputs)}
    work = c.topo_order()[::-1]
    while work:
        nid = work.pop()
        other = _partner(g, nid) if nid in g.nodes else None
        if other is not None:
            for w in _erase(g, outputs, output_at, nid, other):
                work += [n for n in (g.producers.get(w), g.consumers.get(w))
                         if n is not None]
    if len(g.nodes) == len(c.nodes):
        return c
    out = Circuit._assembled(g.wires, g.nodes, c.inputs, outputs)
    out._check_acyclic()
    return out


def expand_wire(c: Circuit, wire: str) -> Circuit:
    """Replace a wire by the pair of the `_REDEXES` row that erases to one
    wire of its type: an elimination-then-introduction pair for the tensor
    and par, and a unit pair thinned onto itself for the units.  It edits
    a copy of `c`'s indexed graph (`circuit._Pool`): the wire's consumer
    end moves to a new wire and the pair is added between the two."""
    if wire not in c.wires:
        raise NotExpandable(wire, "no such wire")
    t = c.wires[wire]
    row = next((r for r in _REDEXES if r[3] and isinstance(t, r[3])), None)
    if row is None:
        raise NotExpandable(wire, f"type {t} is atomic here")
    first, second, by_anchor, _ = row
    out, *links = [_unused(c.wires, fresh_wire) for _ in range(3)]
    g, outputs = _Pool(c), list(c.outputs)
    g.wires[out] = t
    cons = g.consumers.pop(wire, None)
    if cons is None:
        outputs[outputs.index(wire)] = out
    else:
        n = g.nodes[cons]
        g.nodes[cons] = replace(n, ins=tuple(out if w == wire else w
                                             for w in n.ins))
        g.consumers[out] = cons
    if by_anchor:
        # the elimination takes the wire, the introduction makes the new one
        ports = {k: ((), (out,)) if k.endswith("_intro") else ((wire,), ())
                 for k in (first, second)}
        f = Node(first, *ports[first])
        s = Node(second, *ports[second], thin=f.ports()[0])
    else:
        g.wires.update(zip(links, (t.left, t.right)))
        f = Node(first, (wire,), tuple(links))
        s = Node(second, tuple(links), (out,))
    for n in (f, s):
        g.add(_unused(g.nodes, fresh_node), n)
    return g.circuit(c.inputs, outputs)
