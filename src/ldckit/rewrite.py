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
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Optional

from .circuit import Circuit, Node, _unused, fresh_node, fresh_wire
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


class _Graph:
    """A circuit under rewriting, with each wire's producer and consumer
    node and the nodes thinned onto it."""

    def __init__(self, c: Circuit):
        self.wires = dict(c.wires)
        self.nodes = dict(c.nodes)
        self.outputs = list(c.outputs)
        self.output_at = {w: i for i, w in enumerate(c.outputs)}
        self.producer = dict(c._producers)
        self.consumer = dict(c._consumers)
        self.anchored: defaultdict[str, set[str]] = defaultdict(
            set, {w: set(held) for w, held in c._anchored.items()})

    def partner(self, nid: str) -> Optional[str]:
        """The second node of a redex whose first node is `nid`, if any."""
        n = self.nodes[nid]
        for first, second, by_anchor, _ in _REDEXES:
            if n.kind != first:
                continue
            links = n.ports() if by_anchor else n.outs
            if by_anchor:
                held = self.anchored[links[0]]
                other = next(iter(held)) if len(held) == 1 else None
            else:
                other = self.consumer.get(links[0])
            if other is None or self.nodes[other].kind != second or \
                    not by_anchor and self.nodes[other].ins != n.outs:
                continue
            if all(self.anchored[w] <= {nid, other} for w in links):
                return other
        return None

    def erase(self, *pair_ids: str) -> list[str]:
        """Erase a redex; returns the wires whose neighbours changed."""
        pair = [self.nodes.pop(nid) for nid in pair_ids]
        ins = [w for n in pair for w in n.ins]
        outs = [w for n in pair for w in n.outs]
        dead = set(ins) & set(outs)
        for nid, n in zip(pair_ids, pair):
            self.anchored[n.thin].discard(nid)
        for w in dead:
            del self.wires[w], self.producer[w], self.consumer[w]
        keep = [w for w in ins if w not in dead]
        for k, gone in zip(keep, [w for w in outs if w not in dead]):
            del self.wires[gone], self.producer[gone]
            cons = self.consumer.pop(gone, None)
            if cons is None:
                del self.consumer[k]
                i = self.output_at[k] = self.output_at.pop(gone)
                self.outputs[i] = k
            else:
                self.consumer[k] = cons
            moved = self.anchored.pop(gone, set())
            self.anchored[k] |= moved
            for nid in moved | {cons} - {None}:
                self.nodes[nid] = self.nodes[nid].rewired({gone: k})
        return [w for w in [n.thin for n in pair] + keep if w in self.wires]


def normalize(c: Circuit) -> Circuit:
    """Erase redexes until none remains.  One indexed graph is rewritten in
    place: every node is tried once as the first node of a redex, in
    topological order, and after each erasure the producers and consumers of
    the wires it merged or released are tried again.  Every erasure removes
    two nodes, so the process terminates; one `Circuit` is built at the end,
    and `c` itself is returned when nothing was erased.  Erasures keep every
    wire typed with one producer and one consumer, so the result is checked
    for cycles only: a thinning link is no flow edge, and merging the wires
    of a pair that it links can close one, which raises `IllTyped`."""
    g = _Graph(c)
    work = c.topo_order()[::-1]
    while work:
        nid = work.pop()
        other = g.partner(nid) if nid in g.nodes else None
        if other is not None:
            for w in g.erase(nid, other):
                work += [n for n in (g.producer.get(w), g.consumer.get(w))
                         if n is not None]
    if len(g.nodes) == len(c.nodes):
        return c
    out = Circuit._assembled(g.wires, g.nodes, c.inputs, g.outputs)
    out._check_acyclic()
    return out


def expand_wire(c: Circuit, wire: str) -> Circuit:
    """Replace a wire by the pair of the `_REDEXES` row that erases to one
    wire of its type: an elimination-then-introduction pair for the tensor
    and par, and a unit pair thinned onto itself for the units.  The
    result's endpoint maps and anchor index are `c`'s with the entries of
    the moved wire end and of the pair changed."""
    if wire not in c.wires:
        raise NotExpandable(wire, "no such wire")
    t = c.wires[wire]
    row = next((r for r in _REDEXES if r[3] and isinstance(t, r[3])), None)
    if row is None:
        raise NotExpandable(wire, f"type {t} is atomic here")
    first, second, by_anchor, _ = row
    out, *links = [_unused(c.wires, fresh_wire) for _ in range(3)]
    wires, nodes, outputs = c.wires | {out: t}, dict(c.nodes), list(c.outputs)
    producers, consumers = dict(c._producers), dict(c._consumers)
    anchored = dict(c._anchored)
    cons = consumers.pop(wire, None)
    if cons is None:
        outputs[outputs.index(wire)] = out
    else:
        n = nodes[cons]
        nodes[cons] = replace(n, ins=tuple(out if w == wire else w
                                           for w in n.ins))
        consumers[out] = cons
    if by_anchor:
        # the elimination takes the wire, the introduction makes the new one
        ports = {k: ((), (out,)) if k.endswith("_intro") else ((wire,), ())
                 for k in (first, second)}
        f = Node(first, *ports[first])
        s = Node(second, *ports[second], thin=f.ports()[0])
    else:
        wires |= dict(zip(links, (t.left, t.right)))
        f = Node(first, (wire,), tuple(links))
        s = Node(second, tuple(links), (out,))
    for n in (f, s):
        nid = _unused(c.nodes, fresh_node)
        nodes[nid] = n
        consumers.update(dict.fromkeys(n.ins, nid))
        producers.update(dict.fromkeys(n.outs, nid))
        if n.thin is not None:
            anchored[n.thin] = anchored.get(n.thin, ()) + (nid,)
    return Circuit._assembled(wires, nodes, c.inputs, outputs,
                              (producers, consumers, anchored))
