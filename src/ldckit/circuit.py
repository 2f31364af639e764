"""Typed open circuit graphs.

A circuit is a port graph: wires carry object formulas, nodes are the
introduction/elimination structure for the two tensors and their units,
thinning-linked unit nodes, symmetries, named generators, and dagger boxes.
Every wire has exactly one producer endpoint and one consumer endpoint,
where the circuit boundary counts as an endpoint.  Flow is acyclic.

Two entry points make a circuit.  The public constructor `Circuit(...)`
checks all of this, node by node, and so does `io.parse` through it: they
take untrusted input.  The builders of this module (`identity`, `empty`,
the one-node builders, `permutation`, `seq`, `par`, `reverse`, `mirror`,
`dagger` and `substitute`) and `rewrite.expand_wire` join parts that are
already checked in ways that keep every wire typed, with one producer and
one consumer, and the flow acyclic; they go through `Circuit._assembled`,
which checks nothing again.  `rewrite.normalize` goes through it too and
checks its result for cycles alone.  What a builder checks of its own
arguments it still checks: `generator` that it has a name, `seq` the types
where parts meet, `substitute` each replacement's boundary, `reverse` and
`mirror` the kinds of the nodes they redraw.

`seq` and `par` loop in Python over the wires they glue, not over the
parts, though they copy the parts' tables whole: a part whose wire and
node ids the circuit being built lacks is moved into it whole, keeping
its ids and its `Node` objects, and only the nodes that consume a glued
wire or are thinned onto one are redrawn.  A part whose ids clash with
ones already placed (a part used twice, or a parsed part) is copied first
under ids that none of the placed wires and nodes has.  So a built
circuit keeps its parts' ids where they do not clash, and its wires and
nodes come in the order of its parts.

This module alone knows the two formats a circuit is held in: the table
of structural node kinds (`_STRUCTURAL`), by which `Circuit(...)` types
nodes and `io.parse` splits their ports, and a circuit's endpoint index
(`_index`).  What edits a circuit's graph, here or in `rewrite`, edits a
`_Pool`, which keeps the index in step.
"""
from __future__ import annotations

import heapq
import itertools
from collections import ChainMap, Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Mapping, Optional, Sequence

from .errors import IllTyped, LdcError, TypeMismatch
from .objects import ObjectExpr, Tensor, Par, Top, Bot, dagger_of, factors

# The structural node kinds: each one's numbers of inputs and outputs, the
# rule that its port types obey, the error when they do not, and, for a
# unit thinned onto a wire, the error when its anchor is missing.
# `Circuit._check_node` types nodes by it and `io.parse` splits their ports.
_STRUCTURAL = {
    "tensor_intro": (2, 1, lambda i, o: o[0] == Tensor(*i),
                     "tensor introduction must be (A, B) -> A*B", None),
    "tensor_elim": (1, 2, lambda i, o: i[0] == Tensor(*o),
                    "tensor elimination must be A*B -> (A, B)", None),
    "par_intro": (2, 1, lambda i, o: o[0] == Par(*i),
                  "par introduction must be (A, B) -> A+B", None),
    "par_elim": (1, 2, lambda i, o: i[0] == Par(*o),
                 "par elimination must be A+B -> (A, B)", None),
    "top_intro": (0, 1, lambda i, o: isinstance(o[0], Top),
                  "top introduction must be () -> T", None),
    "top_elim": (1, 0, lambda i, o: isinstance(i[0], Top),
                 "top elimination must be T -> ()",
                 "top elimination needs an existing thinning anchor wire"),
    "bot_intro": (0, 1, lambda i, o: isinstance(o[0], Bot),
                  "bot introduction must be () -> _|_",
                  "bot introduction needs an existing thinning anchor wire"),
    "bot_elim": (1, 0, lambda i, o: isinstance(i[0], Bot),
                 "bot elimination must be _|_ -> ()", None),
    "swap": (2, 2, lambda i, o: o == i[::-1],
             "symmetry must be (A, B) -> (B, A)", None),
}

NODE_KINDS = ("gen", *_STRUCTURAL, "dagger_box")


@dataclass(frozen=True)
class Node:
    kind: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    name: Optional[str] = None
    dom: Optional[tuple[ObjectExpr, ...]] = None
    cod: Optional[tuple[ObjectExpr, ...]] = None
    thin: Optional[str] = None
    inner: Optional["Circuit"] = None

    def ports(self) -> tuple[str, ...]:
        return self.ins + self.outs

    def rewired(self, wire_map: Mapping[str, str]) -> "Node":
        """This node with its ports and thinning anchor renamed through
        `wire_map` (ids it lacks are kept)."""
        get = wire_map.get
        thin = None if self.thin is None else get(self.thin, self.thin)
        return Node(self.kind, tuple([get(w, w) for w in self.ins]),
                    tuple([get(w, w) for w in self.outs]), self.name,
                    self.dom, self.cod, thin, self.inner)


def _anchors(nodes: Mapping[str, Node]) -> dict[str, tuple[str, ...]]:
    """The anchor index of `nodes`: each wire that nodes are thinned onto,
    with their ids in node order."""
    anchored: dict[str, tuple[str, ...]] = {}
    for nid, n in nodes.items():
        if n.thin is not None:
            anchored[n.thin] = anchored.get(n.thin, ()) + (nid,)
    return anchored


def _index(nodes: Mapping[str, Node]) -> tuple[dict, dict, dict]:
    """The producer map, consumer map and anchor index of `nodes`."""
    return ({w: nid for nid, n in nodes.items() for w in n.outs},
            {w: nid for nid, n in nodes.items() for w in n.ins},
            _anchors(nodes))


class Circuit:
    """Immutable typed port graph with an ordered boundary.  `Circuit(...)`
    checks its arguments and raises `IllTyped` on any fault; the builders
    of this module build through `_assembled`, which trusts them."""

    def __init__(self,
                 wires: dict[str, ObjectExpr],
                 nodes: dict[str, Node],
                 inputs: Sequence[str],
                 outputs: Sequence[str]):
        self.wires = dict(wires)
        self.nodes = dict(nodes)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self._check()
        # model.evaluate's compiled contractions, by factor dimensions,
        # and the degree windows of `suites`, by degree and those
        self._programs: dict = {}

    @classmethod
    def _assembled(cls, wires: dict[str, ObjectExpr], nodes: dict[str, Node],
                   inputs: Sequence[str], outputs: Sequence[str],
                   index: Optional[tuple[dict, dict, dict]] = None
                   ) -> "Circuit":
        """A circuit that a builder assembled from checked parts, well
        formed by construction: nothing is checked.  `index` holds its
        producer map, consumer map and anchor index (`_index`), which a
        builder that derived them from its parts' hands over; without it
        they are indexed from `nodes`.  It keeps `wires`, `nodes` and the
        maps themselves, so the caller hands over dicts that no other
        circuit holds."""
        c = cls.__new__(cls)
        c.wires, c.nodes = wires, nodes
        c.inputs, c.outputs = tuple(inputs), tuple(outputs)
        c._producers, c._consumers, c._anchored = index or _index(nodes)
        c._programs = {}
        return c

    # -- structural views -------------------------------------------------

    def input_types(self) -> tuple[ObjectExpr, ...]:
        return tuple(self.wires[w] for w in self.inputs)

    def output_types(self) -> tuple[ObjectExpr, ...]:
        return tuple(self.wires[w] for w in self.outputs)

    def producer(self, w: str) -> Optional[str]:
        """Node id producing wire w, or None when w is a circuit input."""
        return self._producers.get(w)

    def consumer(self, w: str) -> Optional[str]:
        """Node id consuming wire w, or None when w is a circuit output."""
        return self._consumers.get(w)

    def nested(self) -> list["Circuit"]:
        """It and the circuits inside its dagger boxes, at any depth."""
        out = [self]
        for c in out:   # grows while it is walked
            out += (n.inner for n in c.nodes.values() if n.inner is not None)
        return out

    @cached_property
    def factors(self) -> tuple[ObjectExpr, ...]:
        """The distinct Kronecker factors (`objects.factors`) of its wires
        and of the wires inside its dagger boxes, in first-seen order."""
        return tuple(dict.fromkeys(f for c in self.nested()
                                   for t in c.wires.values()
                                   for f in factors(t)))

    @cached_property
    def generator_names(self) -> frozenset[str]:
        """Names of its generators, inside dagger boxes too."""
        return frozenset(n.name for c in self.nested()
                         for n in c.nodes.values() if n.kind == "gen")

    # -- validation -------------------------------------------------------

    def _check(self) -> None:
        producers: dict[str, str] = {}
        consumers: dict[str, str] = {}
        for w in self.wires:
            if not isinstance(w, str) or not w:
                raise IllTyped(str(w), "wire ids must be nonempty strings")
        seen_in = set()
        for w in self.inputs:
            if w not in self.wires:
                raise IllTyped(w, "boundary input references unknown wire")
            if w in seen_in:
                raise IllTyped(w, "wire appears twice among inputs")
            seen_in.add(w)
        seen_out = set()
        for w in self.outputs:
            if w not in self.wires:
                raise IllTyped(w, "boundary output references unknown wire")
            if w in seen_out:
                raise IllTyped(w, "wire appears twice among outputs")
            seen_out.add(w)

        for nid, node in self.nodes.items():
            if not isinstance(nid, str) or not nid:
                raise IllTyped(str(nid), "node ids must be nonempty strings")
            self._check_node(nid, node)
            for w in node.ins:
                if w in consumers:
                    raise IllTyped(nid, f"wire {w} consumed twice")
                consumers[w] = nid
            for w in node.outs:
                if w in producers:
                    raise IllTyped(nid, f"wire {w} produced twice")
                producers[w] = nid

        for w in self.wires:
            has_prod = (w in producers) + (w in seen_in)
            has_cons = (w in consumers) + (w in seen_out)
            if has_prod != 1 or has_cons != 1:
                raise IllTyped(w, "wire must have exactly one producer and "
                                  "one consumer endpoint")
        self._producers = producers
        self._consumers = consumers
        self._anchored = _anchors(self.nodes)
        self._check_acyclic()

    def _check_node(self, nid: str, node: Node) -> None:
        if node.kind not in NODE_KINDS:
            raise IllTyped(nid, f"unknown node kind {node.kind!r}")
        for w in node.ports():
            if w not in self.wires:
                raise IllTyped(nid, f"port references unknown wire {w}")
        tin = tuple(self.wires[w] for w in node.ins)
        tout = tuple(self.wires[w] for w in node.outs)
        if node.kind in _STRUCTURAL:
            n_in, n_out, typed, wrong, unanchored = _STRUCTURAL[node.kind]
            if (len(tin), len(tout)) != (n_in, n_out) or not typed(tin, tout):
                raise IllTyped(nid, wrong)
            if unanchored and node.thin not in self.wires:
                raise IllTyped(nid, unanchored)
        elif node.kind == "gen":
            if node.name is None:
                raise IllTyped(nid, "generator node needs a name")
            dom = node.dom if node.dom is not None else tin
            cod = node.cod if node.cod is not None else tout
            if tuple(dom) != tin or tuple(cod) != tout:
                raise IllTyped(nid, "generator signature does not match "
                                    "port wire types")
        else:
            if node.inner is None:
                raise IllTyped(nid, "dagger box needs an inner circuit")
            want_in = tuple(dagger_of(t)
                            for t in reversed(node.inner.output_types()))
            want_out = tuple(dagger_of(t)
                             for t in reversed(node.inner.input_types()))
            if tin != want_in or tout != want_out:
                raise IllTyped(nid, "dagger box boundary must mirror the "
                                    "daggered inner boundary")

    def _flow(self) -> tuple[dict[str, list[str]], dict[str, int]]:
        """Each node's successors, once per wire between them, and its
        number of incoming wires."""
        succ: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        indeg = dict.fromkeys(self.nodes, 0)
        for w in self.wires:
            p, c = self._producers.get(w), self._consumers.get(w)
            if p is not None and c is not None:
                succ[p].append(c)
                indeg[c] += 1
        return succ, indeg

    def _check_acyclic(self) -> None:
        succ, indeg = self._flow()
        done = [n for n, d in indeg.items() if d == 0]
        for n in done:   # grows while it is walked
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    done.append(m)
        if len(done) != len(self.nodes):
            raise IllTyped("<circuit>", "flow graph contains a cycle")

    # -- utilities --------------------------------------------------------

    def topo_order(self) -> list[str]:
        """Its nodes in flow order; of the nodes ready at once, the one
        created first (the first in `nodes`) goes first."""
        succ, indeg = self._flow()
        names = list(self.nodes)
        place = {n: k for k, n in enumerate(names)}
        ready = [k for k, n in enumerate(names) if indeg[n] == 0]
        order = []
        while ready:
            n = names[heapq.heappop(ready)]
            order.append(n)
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, place[m])
        return order


# -- fresh-name plumbing ---------------------------------------------------

_counter = itertools.count()


def fresh_wire() -> str:
    return f"w{next(_counter)}"


def fresh_node() -> str:
    return f"n{next(_counter)}"


def _unused(taken: Container[str], fresh: Callable[[], str]) -> str:
    """A fresh id that `taken` lacks (parsed ids, and the ids that built
    circuits keep, need not lie behind the counter)."""
    while (new := fresh()) in taken:
        pass
    return new


# -- builders --------------------------------------------------------------

def identity(types: Sequence[ObjectExpr]) -> Circuit:
    wires = {fresh_wire(): t for t in types}
    ids = list(wires)
    return Circuit._assembled(wires, {}, ids, ids)


def generator(name: str, dom: Sequence[ObjectExpr],
              cod: Sequence[ObjectExpr]) -> Circuit:
    if name is None:
        raise IllTyped("<generator>", "generator node needs a name")
    return _structural("gen", dom, cod, name=name, dom=tuple(dom),
                       cod=tuple(cod))


def swap(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("swap", [a, b], [b, a])


class _Pool:
    """The wires and nodes of a circuit under construction or rewriting,
    with its producer map, consumer map and anchor index (`_index`) kept
    in step: `seq` and `par` join their parts in one, and `rewrite`
    edits a copy of the circuit it rewrites in one."""

    def __init__(self, c: Optional[Circuit] = None):
        """An empty pool, or one holding copies of `c`'s dicts."""
        self.wires: dict[str, ObjectExpr] = dict(c.wires) if c else {}
        self.nodes: dict[str, Node] = dict(c.nodes) if c else {}
        self.producers: dict[str, str] = dict(c._producers) if c else {}
        self.consumers: dict[str, str] = dict(c._consumers) if c else {}
        self.anchored: dict[str, tuple[str, ...]] = (dict(c._anchored)
                                                     if c else {})

    def add(self, nid: str, node: Node) -> None:
        """Enter `node` as `nid`, after the nodes held."""
        self.nodes[nid] = node
        self.consumers.update(dict.fromkeys(node.ins, nid))
        self.producers.update(dict.fromkeys(node.outs, nid))
        if node.thin is not None:
            held = self.anchored.get(node.thin, ())
            self.anchored[node.thin] = held + (nid,)

    def drop(self, nid: str) -> Node:
        """Remove node `nid`, leaving its wires without that endpoint."""
        node = self.nodes.pop(nid)
        for w in node.ins:
            del self.consumers[w]
        for w in node.outs:
            del self.producers[w]
        if node.thin is not None:
            held = tuple(m for m in self.anchored.pop(node.thin) if m != nid)
            if held:
                self.anchored[node.thin] = held
        return node

    def merge(self, glue: Mapping[str, str]) -> None:
        """Join each wire `w` of `glue`, which has no producer, to the
        wire `glue[w]`, which has no consumer: `w` is deleted, and its
        consumer and the nodes thinned onto it pass to `glue[w]`.  Each
        node moved is redrawn once, keeping its place in node order."""
        redraw = set()
        for w, g in glue.items():
            del self.wires[w]
            nid = self.consumers.pop(w, None)
            if nid is not None:
                self.consumers[g] = nid
                redraw.add(nid)
            if w in self.anchored:
                held = self.anchored.pop(w)
                self.anchored[g] = self.anchored.get(g, ()) + held
                redraw.update(held)
        for nid in redraw:   # an overwritten key keeps its place
            self.nodes[nid] = self.nodes[nid].rewired(glue)

    def circuit(self, inputs: Sequence[str],
                outputs: Sequence[str]) -> Circuit:
        return Circuit._assembled(self.wires, self.nodes, inputs, outputs,
                                  (self.producers, self.consumers,
                                   self.anchored))


def _copied(part: Circuit, pool: _Pool) -> Circuit:
    """`part` under new wire and node ids that `pool` lacks."""
    wire_map = {w: _unused(pool.wires, fresh_wire) for w in part.wires}
    return Circuit._assembled(
        {wire_map[w]: t for w, t in part.wires.items()},
        {_unused(pool.nodes, fresh_node): n.rewired(wire_map)
         for n in part.nodes.values()},
        [wire_map[w] for w in part.inputs],
        [wire_map[w] for w in part.outputs])


def _place(part: Circuit, pool: _Pool, glued: Sequence[str] = ()
           ) -> tuple[list[str], list[str]]:
    """Move `part` into `pool`, in its own order; its inputs take the ids
    in `glued`, which are pooled already.  Its other wires and its nodes
    keep their ids and `Node` objects unless the pool holds one of those
    ids, in which case the part is `_copied` first.  Only the nodes that
    consume a glued input or are thinned onto one are redrawn, found
    through the part's consumer map and anchor index, so the time taken
    in Python grows with `glued`, not with the part.  Returns the ids of
    its inputs and outputs in the pool."""
    # views both, so that the test walks the smaller side
    if not (part.wires.keys().isdisjoint(pool.wires.keys())
            and part.nodes.keys().isdisjoint(pool.nodes.keys())):
        part = _copied(part, pool)
    pool.wires.update(part.wires)
    pool.nodes.update(part.nodes)
    pool.producers.update(part._producers)
    pool.consumers.update(part._consumers)
    if part._anchored:
        pool.anchored.update(part._anchored)
    if not glued:
        return list(part.inputs), list(part.outputs)
    glue = dict(zip(part.inputs, glued))
    pool.merge(glue)
    return list(glued), [glue.get(w, w) for w in part.outputs]


def seq(first: Circuit, *rest: Circuit) -> Circuit:
    """Plug each part's outputs into the next part's inputs, position-wise."""
    for f, g in zip((first,) + rest, rest):
        fo, gi = f.output_types(), g.input_types()
        if len(fo) != len(gi):
            raise TypeMismatch(len(fo), f"{len(fo)} wires",
                               f"{len(gi)} wires")
        for i, (a, b) in enumerate(zip(fo, gi)):
            if a != b:
                raise TypeMismatch(i, a, b)
    pool = _Pool()
    inputs, outputs = _place(first, pool)
    for c in rest:
        outputs = _place(c, pool, outputs)[1]
    return pool.circuit(inputs, outputs)


def par(first: Circuit, *rest: Circuit) -> Circuit:
    """Disjoint union with concatenated boundaries."""
    pool = _Pool()
    inputs: list[str] = []
    outputs: list[str] = []
    for c in (first,) + rest:
        ins, outs = _place(c, pool)
        inputs += ins
        outputs += outs
    return pool.circuit(inputs, outputs)


def compose(f: Circuit, g: Circuit) -> Circuit:
    """Plug f's outputs into g's inputs: `seq` of two parts."""
    return seq(f, g)


def tensor_parallel(f: Circuit, g: Circuit) -> Circuit:
    """`par` of two parts."""
    return par(f, g)


def empty() -> Circuit:
    return Circuit._assembled({}, {}, (), ())


def _structural(kind: str, tin: Sequence[ObjectExpr],
                tout: Sequence[ObjectExpr], *, name: Optional[str] = None,
                dom: Optional[tuple[ObjectExpr, ...]] = None,
                cod: Optional[tuple[ObjectExpr, ...]] = None,
                inner: Optional[Circuit] = None) -> Circuit:
    """One node of `kind` on fresh wires of the given types."""
    wi = [fresh_wire() for _ in tin]
    wo = [fresh_wire() for _ in tout]
    wires = dict(zip(wi, tin)) | dict(zip(wo, tout))
    node = Node(kind, tuple(wi), tuple(wo), name, dom, cod, inner=inner)
    return Circuit._assembled(wires, {fresh_node(): node}, wi, wo)


def tensor_intro(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("tensor_intro", [a, b], [Tensor(a, b)])


def tensor_elim(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("tensor_elim", [Tensor(a, b)], [a, b])


def par_intro(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("par_intro", [a, b], [Par(a, b)])


def par_elim(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    return _structural("par_elim", [Par(a, b)], [a, b])


def top_intro() -> Circuit:
    return _structural("top_intro", [], [Top()])


def bot_elim() -> Circuit:
    return _structural("bot_elim", [Bot()], [])


def top_elim_on(carrier: ObjectExpr) -> Circuit:
    """(T, A) -> A: eliminate the unit, thinning-linked to the carrier."""
    wt, wc = fresh_wire(), fresh_wire()
    wires = {wt: Top(), wc: carrier}
    node = Node(kind="top_elim", ins=(wt,), outs=(), thin=wc)
    return Circuit._assembled(wires, {fresh_node(): node}, [wt, wc], [wc])


def bot_intro_on(carrier: ObjectExpr) -> Circuit:
    """A -> (_|_, A): introduce the unit, thinning-linked to the carrier."""
    wb, wc = fresh_wire(), fresh_wire()
    wires = {wb: Bot(), wc: carrier}
    node = Node(kind="bot_intro", ins=(), outs=(wb,), thin=wc)
    return Circuit._assembled(wires, {fresh_node(): node}, [wc], [wb, wc])


def permutation(types: Sequence[ObjectExpr],
                order: Sequence[int]) -> Circuit:
    """Circuit mapping input i to output position order.index(i), built from
    adjacent symmetries.  `order[j]` is the input index appearing at output j.
    Each symmetry exchanges the first adjacent pair still out of order, which
    after a swap at j lies at j - 1 or later: linear in the symmetries."""
    n = len(types)
    try:
        bijective = sorted(order) == list(range(n))
    except TypeError:   # entries that do not compare, such as "a" and 0
        bijective = False
    if not bijective:
        raise LdcError(f"not a permutation of 0..{n - 1}: {order}")
    wires = {fresh_wire(): t for t in types}
    inputs = list(wires)
    # the wire at each position, and the output position it is bound for
    line = list(inputs)
    dest = sorted(range(n), key=list(order).__getitem__)
    nodes, j = {}, 0
    while j < n - 1:
        if dest[j] < dest[j + 1]:
            j += 1
            continue
        outs = (fresh_wire(), fresh_wire())
        wires[outs[0]], wires[outs[1]] = wires[line[j + 1]], wires[line[j]]
        nodes[fresh_node()] = Node("swap", tuple(line[j:j + 2]), outs)
        line[j:j + 2] = outs
        dest[j:j + 2] = dest[j + 1], dest[j]
        j = max(j - 1, 0)
    return Circuit._assembled(wires, nodes, inputs, line)


def dagger_box(inner: Circuit) -> Circuit:
    return _structural(
        "dagger_box", [dagger_of(t) for t in reversed(inner.output_types())],
        [dagger_of(t) for t in reversed(inner.input_types())], inner=inner)


def _redrawn(c: Circuit, rename: Mapping[str, str], how: str,
             order, redraw) -> dict[str, Node]:
    """The nodes of `c`, taken in `order`, each generator renamed through
    `rename` (names it lacks are kept) and then redrawn by `redraw`;
    the loop of `reverse` and `mirror`, which `how` names."""
    nodes = {}
    for nid in order:
        n = c.nodes[nid]
        if n.kind not in ("gen", "swap"):
            raise IllTyped(nid, f"cannot {how} a {n.kind} node")
        name = rename.get(n.name, n.name) if n.kind == "gen" else None
        nodes[nid] = redraw(n, name)
    return nodes


def reverse(c: Circuit, rename: Mapping[str, str]) -> Circuit:
    """Flip a circuit of generators and symmetries upside down: every node
    and the boundary swap inputs with outputs, and each generator is renamed
    through `rename` (names it lacks are kept).  With every renamed
    generator assigned the transpose of the original's matrix, the flipped
    circuit evaluates to the transpose.  Nodes come out in reverse order, so
    contraction meets them in the flipped flow order.  Each wire's producer
    becomes its consumer and each consumer its producer."""
    nodes = _redrawn(c, rename, "reverse", reversed(list(c.nodes)),
                     lambda n, name: Node(n.kind, n.outs, n.ins, name,
                                          n.cod, n.dom))
    return Circuit._assembled(dict(c.wires), nodes, c.outputs, c.inputs,
                              (dict(c._consumers), dict(c._producers),
                               dict(c._anchored)))


def mirror(c: Circuit, rename: Mapping[str, str]) -> Circuit:
    """Reflect a circuit of generators and symmetries left to right: every
    node and the boundary reverse the order of their inputs and of their
    outputs, and each generator is renamed through `rename` (names it lacks
    are kept).  With every renamed generator assigned the original's matrix
    with its ports reversed, the mirror evaluates to the matrix with its
    boundary reversed.  Nodes keep their order, as the flow does, and every
    wire its producer and consumer."""
    def flip(ts: Optional[tuple]) -> Optional[tuple]:
        return None if ts is None else ts[::-1]
    nodes = _redrawn(c, rename, "mirror", c.nodes,
                     lambda n, name: Node(n.kind, n.ins[::-1], n.outs[::-1],
                                          name, flip(n.dom), flip(n.cod)))
    return Circuit._assembled(dict(c.wires), nodes, c.inputs[::-1],
                              c.outputs[::-1],
                              (dict(c._producers), dict(c._consumers),
                               dict(c._anchored)))


def dagger(c: Circuit) -> Circuit:
    """`reverse` with each generator n renamed n_dag and each n_dag renamed
    n.  With n_dag assigned the conjugate transpose of n's matrix, the
    result evaluates to the conjugate transpose; its dagger is c again."""
    return reverse(c, {n: n.removesuffix("_dag") if n.endswith("_dag")
                       else n + "_dag" for n in c.generator_names})


def substitute(c: Circuit, table: Mapping[str, Circuit]) -> Circuit:
    """Replace each generator whose name is in `table` by that circuit: its
    boundary is glued to the generator's ports and its nodes are inlined,
    under ids that `c` and the earlier replacements lack, where the
    generator stood in node order.  Replacements are not substituted
    again; generators inside dagger boxes are kept.  A replacement whose
    boundary types differ from the generator's ports raises `IllTyped`,
    and so does one that passes a wire straight through, since that wire
    would join two of the circuit's wires into one."""
    wires = dict(c.wires)
    nodes: dict[str, Node] = {}
    taken = ChainMap(nodes, c.nodes)
    for nid, n in c.nodes.items():
        sub = table.get(n.name) if n.kind == "gen" else None
        if sub is None:
            nodes[nid] = n
            continue
        if (sub.input_types(), sub.output_types()) != (
                tuple(c.wires[w] for w in n.ins),
                tuple(c.wires[w] for w in n.outs)):
            raise IllTyped(nid, f"replacement for {n.name!r} does not "
                                "match the generator's port types")
        if not set(sub.inputs).isdisjoint(sub.outputs):
            raise IllTyped(nid, f"replacement for {n.name!r} passes a wire "
                                "straight through")
        wire_map = dict(zip(sub.inputs + sub.outputs, n.ins + n.outs))
        for w, t in sub.wires.items():
            if w not in wire_map:
                wire_map[w] = _unused(wires, fresh_wire)
                wires[wire_map[w]] = t
        for node in sub.nodes.values():
            nodes[_unused(taken, fresh_node)] = node.rewired(wire_map)
    return Circuit._assembled(wires, nodes, c.inputs, c.outputs)


# -- graph isomorphism -----------------------------------------------------

def _node_signature(c: Circuit, nid: str) -> tuple:
    n = c.nodes[nid]
    inner_sig = None
    if n.inner is not None:
        inner_sig = (tuple(n.inner.input_types()),
                     tuple(n.inner.output_types()),
                     len(n.inner.nodes), len(n.inner.wires))
    return (n.kind, n.name, len(n.ins), len(n.outs),
            tuple(c.wires[w] for w in n.ins),
            tuple(c.wires[w] for w in n.outs),
            n.thin is not None, inner_sig)


def _search_order(c: Circuit) -> list[str]:
    """c's nodes breadth first from the boundary, across ports and thinning
    anchors; a part that the boundary does not reach starts from its least
    node id.  Every other node is reached through a wire of the boundary or
    of an earlier node."""
    def near(w: Optional[str]) -> tuple:
        return c.producer(w), c.consumer(w), *c._anchored.get(w, ())

    order: dict[str, None] = {}   # an insertion-ordered set
    queue = deque(m for w in c.inputs + c.outputs for m in near(w))
    for root in [*sorted(c.nodes), None]:
        while queue:
            nid = queue.popleft()
            if nid is not None and nid not in order:
                order[nid] = None
                n = c.nodes[nid]
                queue.extend(m for w in n.ports() + (n.thin,) for m in near(w))
        queue.append(root)
    return list(order)


def isomorphic(c1: Circuit, c2: Circuit) -> bool:
    """Port-graph isomorphism respecting boundary order, wire types, node
    kinds/names, port order, and thinning anchors.  Backtracking search over
    c1's nodes in `_search_order`, on an explicit stack: a node reached
    through a matched wire can only match the node at the same port of that
    wire's image (or one thinned onto it), so a circuit that the boundary
    reaches matches in time linear in its size."""
    if (c1.input_types() != c2.input_types()
            or c1.output_types() != c2.output_types()
            or len(c1.wires) != len(c2.wires)
            or len(c1.nodes) != len(c2.nodes)):
        return False
    sig1 = {n: _node_signature(c1, n) for n in c1.nodes}
    sig2 = {n: _node_signature(c2, n) for n in c2.nodes}
    if Counter(sig1.values()) != Counter(sig2.values()):
        return False
    by_sig, anchored2 = defaultdict(list), defaultdict(list)
    for n in sorted(c2.nodes):
        by_sig[sig2[n]].append(n)
        anchored2[c2.nodes[n].thin].append(n)
    wire_map: dict[str, str] = {}
    back: dict[str, str] = {}
    used: set[str] = set()

    def bind(w1: str, w2: str, trail: list[str]) -> bool:
        if w1 in wire_map:
            return wire_map[w1] == w2
        if w2 in back or c1.wires[w1] != c2.wires[w2]:
            return False
        wire_map[w1], back[w2] = w2, w1
        trail.append(w1)
        return True

    def undo(trail: list[str]) -> None:
        for w1 in trail:
            del back[wire_map.pop(w1)]

    def candidates(n1: str) -> list[str]:
        n = c1.nodes[n1]
        for i, w in enumerate(n.ports()):
            if w in wire_map:
                at = c2.consumer if i < len(n.ins) else c2.producer
                return [m for m in [at(wire_map[w])] if m is not None]
        if n.thin in wire_map:
            return anchored2[wire_map[n.thin]]
        return by_sig[sig1[n1]]

    def match(n1: str, n2: str, trail: list[str]) -> bool:
        a, b = c1.nodes[n1], c2.nodes[n2]
        return (n2 not in used and sig2[n2] == sig1[n1]
                and all(bind(x, y, trail)
                        for x, y in zip(a.ports(), b.ports()))
                and (a.thin is None or bind(a.thin, b.thin, trail))
                and (a.inner is None or isomorphic(a.inner, b.inner)))

    if not all(bind(a, b, []) for a, b in zip(c1.inputs + c1.outputs,
                                             c2.inputs + c2.outputs)):
        return False
    order = _search_order(c1)
    stack = [iter(candidates(order[0]))] if order else []
    chosen: list[tuple[str, list[str]]] = []   # matched node, wires bound
    while stack:
        n1 = order[len(chosen)]
        for n2 in stack[-1]:
            trail: list[str] = []
            if match(n1, n2, trail):
                used.add(n2)
                chosen.append((n2, trail))
                break
            undo(trail)
        else:
            stack.pop()
            if chosen:
                n2, trail = chosen.pop()
                used.discard(n2)
                undo(trail)
            continue
        if len(chosen) == len(order):
            return True
        stack.append(iter(candidates(order[len(chosen)])))
    return not order
