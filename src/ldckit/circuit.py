"""Typed open circuit graphs.

A circuit is a port graph: wires carry object formulas, nodes are the
introduction/elimination structure for the two tensors and their units,
thinning-linked unit nodes, symmetries, named generators, and dagger boxes.
Every wire has exactly one producer endpoint and one consumer endpoint,
where the circuit boundary counts as an endpoint.  Flow is acyclic.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import IllTyped, TypeMismatch
from .objects import ObjectExpr, Tensor, Par, Top, Bot, dagger_of

NODE_KINDS = (
    "gen", "tensor_intro", "tensor_elim", "par_intro", "par_elim",
    "top_intro", "top_elim", "bot_intro", "bot_elim", "swap", "dagger_box",
)


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
        def rw(ws: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(wire_map.get(w, w) for w in ws)
        thin = None if self.thin is None else wire_map.get(self.thin,
                                                           self.thin)
        return Node(self.kind, rw(self.ins), rw(self.outs), self.name,
                    self.dom, self.cod, thin, self.inner)


class Circuit:
    """Immutable typed port graph with an ordered boundary."""

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
        self._check_acyclic()

    def _check_node(self, nid: str, node: Node) -> None:
        if node.kind not in NODE_KINDS:
            raise IllTyped(nid, f"unknown node kind {node.kind!r}")
        for w in node.ports():
            if w not in self.wires:
                raise IllTyped(nid, f"port references unknown wire {w}")
        tin = tuple(self.wires[w] for w in node.ins)
        tout = tuple(self.wires[w] for w in node.outs)
        k = node.kind
        if k == "gen":
            if node.name is None:
                raise IllTyped(nid, "generator node needs a name")
            dom = node.dom if node.dom is not None else tin
            cod = node.cod if node.cod is not None else tout
            if tuple(dom) != tin or tuple(cod) != tout:
                raise IllTyped(nid, "generator signature does not match "
                                    "port wire types")
        elif k == "tensor_intro":
            if len(tin) != 2 or len(tout) != 1 or \
                    tout[0] != Tensor(tin[0], tin[1]):
                raise IllTyped(nid, "tensor introduction must be "
                                    "(A, B) -> A*B")
        elif k == "tensor_elim":
            if len(tin) != 1 or len(tout) != 2 or \
                    tin[0] != Tensor(tout[0], tout[1]):
                raise IllTyped(nid, "tensor elimination must be "
                                    "A*B -> (A, B)")
        elif k == "par_intro":
            if len(tin) != 2 or len(tout) != 1 or \
                    tout[0] != Par(tin[0], tin[1]):
                raise IllTyped(nid, "par introduction must be (A, B) -> A+B")
        elif k == "par_elim":
            if len(tin) != 1 or len(tout) != 2 or \
                    tin[0] != Par(tout[0], tout[1]):
                raise IllTyped(nid, "par elimination must be A+B -> (A, B)")
        elif k == "top_intro":
            if tin or len(tout) != 1 or not isinstance(tout[0], Top):
                raise IllTyped(nid, "top introduction must be () -> T")
        elif k == "top_elim":
            if len(tin) != 1 or tout or not isinstance(tin[0], Top):
                raise IllTyped(nid, "top elimination must be T -> ()")
            if node.thin is None or node.thin not in self.wires:
                raise IllTyped(nid, "top elimination needs an existing "
                                    "thinning anchor wire")
        elif k == "bot_intro":
            if tin or len(tout) != 1 or not isinstance(tout[0], Bot):
                raise IllTyped(nid, "bot introduction must be () -> _|_")
            if node.thin is None or node.thin not in self.wires:
                raise IllTyped(nid, "bot introduction needs an existing "
                                    "thinning anchor wire")
        elif k == "bot_elim":
            if len(tin) != 1 or tout or not isinstance(tin[0], Bot):
                raise IllTyped(nid, "bot elimination must be _|_ -> ()")
        elif k == "swap":
            if len(tin) != 2 or len(tout) != 2 or \
                    (tout[0], tout[1]) != (tin[1], tin[0]):
                raise IllTyped(nid, "symmetry must be (A, B) -> (B, A)")
        elif k == "dagger_box":
            if node.inner is None:
                raise IllTyped(nid, "dagger box needs an inner circuit")
            want_in = tuple(dagger_of(t)
                            for t in reversed(node.inner.output_types()))
            want_out = tuple(dagger_of(t)
                             for t in reversed(node.inner.input_types()))
            if tin != want_in or tout != want_out:
                raise IllTyped(nid, "dagger box boundary must mirror the "
                                    "daggered inner boundary")

    def _check_acyclic(self) -> None:
        succ: dict[str, set[str]] = {nid: set() for nid in self.nodes}
        indeg = {nid: 0 for nid in self.nodes}
        for w in self.wires:
            p, c = self._producers.get(w), self._consumers.get(w)
            if p is not None and c is not None and c not in succ[p]:
                succ[p].add(c)
                indeg[c] += 1
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            n = queue.pop()
            seen += 1
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    queue.append(m)
        if seen != len(self.nodes):
            raise IllTyped("<circuit>", "flow graph contains a cycle")

    # -- utilities --------------------------------------------------------

    def topo_order(self) -> list[str]:
        succ: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        indeg = {nid: 0 for nid in self.nodes}
        for w in self.wires:
            p, c = self._producers.get(w), self._consumers.get(w)
            if p is not None and c is not None:
                succ[p].append(c)
                indeg[c] += 1
        order = []
        ready = sorted((n for n, d in indeg.items() if d == 0), reverse=True)
        while ready:
            n = ready.pop()
            order.append(n)
            changed = False
            for m in succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
                    changed = True
            if changed:
                ready.sort(reverse=True)
        return order


# -- fresh-name plumbing ---------------------------------------------------

_counter = itertools.count()


def fresh_wire() -> str:
    return f"w{next(_counter)}"


def fresh_node() -> str:
    return f"n{next(_counter)}"


# -- builders --------------------------------------------------------------

def identity(types: Sequence[ObjectExpr]) -> Circuit:
    wires = {fresh_wire(): t for t in types}
    ids = list(wires)
    return Circuit(wires, {}, ids, ids)


def generator(name: str, dom: Sequence[ObjectExpr],
              cod: Sequence[ObjectExpr]) -> Circuit:
    wi = [fresh_wire() for _ in dom]
    wo = [fresh_wire() for _ in cod]
    wires = dict(zip(wi, dom)) | dict(zip(wo, cod))
    node = Node(kind="gen", ins=tuple(wi), outs=tuple(wo), name=name,
                dom=tuple(dom), cod=tuple(cod))
    return Circuit(wires, {fresh_node(): node}, wi, wo)


def swap(a: ObjectExpr, b: ObjectExpr) -> Circuit:
    wi = [fresh_wire(), fresh_wire()]
    wo = [fresh_wire(), fresh_wire()]
    wires = {wi[0]: a, wi[1]: b, wo[0]: b, wo[1]: a}
    node = Node(kind="swap", ins=tuple(wi), outs=tuple(wo))
    return Circuit(wires, {fresh_node(): node}, wi, wo)


def _place(part: Circuit, wires: dict[str, ObjectExpr],
           nodes: dict[str, Node], glued: Sequence[str] = ()
           ) -> tuple[list[str], list[str]]:
    """Copy `part` into the shared `wires` and `nodes` pools under fresh
    ids, in its own order; its inputs take the ids in `glued`, which are
    already pooled.  Returns the new ids of its inputs and outputs."""
    wire_map = dict(zip(part.inputs, glued))
    for w, t in part.wires.items():
        if w not in wire_map:
            wire_map[w] = fresh_wire()
            wires[wire_map[w]] = t
    for node in part.nodes.values():
        nodes[fresh_node()] = node.rewired(wire_map)
    return ([wire_map[w] for w in part.inputs],
            [wire_map[w] for w in part.outputs])


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
    wires: dict[str, ObjectExpr] = {}
    nodes: dict[str, Node] = {}
    inputs, outputs = _place(first, wires, nodes)
    for c in rest:
        outputs = _place(c, wires, nodes, outputs)[1]
    return Circuit(wires, nodes, inputs, outputs)


def par(first: Circuit, *rest: Circuit) -> Circuit:
    """Disjoint union with concatenated boundaries."""
    wires: dict[str, ObjectExpr] = {}
    nodes: dict[str, Node] = {}
    inputs: list[str] = []
    outputs: list[str] = []
    for c in (first,) + rest:
        ins, outs = _place(c, wires, nodes)
        inputs += ins
        outputs += outs
    return Circuit(wires, nodes, inputs, outputs)


def compose(f: Circuit, g: Circuit) -> Circuit:
    """Plug f's outputs into g's inputs: `seq` of two parts."""
    return seq(f, g)


def tensor_parallel(f: Circuit, g: Circuit) -> Circuit:
    """`par` of two parts."""
    return par(f, g)


def empty() -> Circuit:
    return Circuit({}, {}, (), ())


def _structural(kind: str, tin: Sequence[ObjectExpr],
                tout: Sequence[ObjectExpr], thin: Optional[str] = None
                ) -> Circuit:
    wi = [fresh_wire() for _ in tin]
    wo = [fresh_wire() for _ in tout]
    wires = dict(zip(wi, tin)) | dict(zip(wo, tout))
    node = Node(kind=kind, ins=tuple(wi), outs=tuple(wo), thin=thin)
    return Circuit(wires, {fresh_node(): node}, wi, wo)


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
    return Circuit(wires, {fresh_node(): node}, [wt, wc], [wc])


def bot_intro_on(carrier: ObjectExpr) -> Circuit:
    """A -> (_|_, A): introduce the unit, thinning-linked to the carrier."""
    wb, wc = fresh_wire(), fresh_wire()
    wires = {wb: Bot(), wc: carrier}
    node = Node(kind="bot_intro", ins=(), outs=(wb,), thin=wc)
    return Circuit(wires, {fresh_node(): node}, [wc], [wb, wc])


def permutation(types: Sequence[ObjectExpr],
                order: Sequence[int]) -> Circuit:
    """Circuit mapping input i to output position order.index(i), built from
    adjacent symmetries.  `order[j]` is the input index appearing at output j.
    Each symmetry exchanges the first adjacent pair still out of order.
    """
    n = len(types)
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {order}")
    wires = {fresh_wire(): t for t in types}
    inputs = list(wires)
    # the wire at each position, and the output position it is bound for
    line = list(inputs)
    dest = [list(order).index(i) for i in range(n)]
    nodes = {}
    while True:
        j = next((j for j in range(n - 1) if dest[j] > dest[j + 1]), None)
        if j is None:
            return Circuit(wires, nodes, inputs, line)
        outs = (fresh_wire(), fresh_wire())
        wires[outs[0]], wires[outs[1]] = wires[line[j + 1]], wires[line[j]]
        nodes[fresh_node()] = Node(kind="swap", ins=tuple(line[j:j + 2]),
                                   outs=outs)
        line[j:j + 2] = outs
        dest[j:j + 2] = dest[j + 1], dest[j]


def dagger_box(inner: Circuit) -> Circuit:
    wi = [fresh_wire() for _ in inner.outputs]
    wo = [fresh_wire() for _ in inner.inputs]
    tin = [dagger_of(t) for t in reversed(inner.output_types())]
    tout = [dagger_of(t) for t in reversed(inner.input_types())]
    wires = dict(zip(wi, tin)) | dict(zip(wo, tout))
    node = Node(kind="dagger_box", ins=tuple(wi), outs=tuple(wo),
                inner=inner)
    return Circuit(wires, {fresh_node(): node}, wi, wo)


def reverse(c: Circuit, rename: Mapping[str, str]) -> Circuit:
    """Flip a circuit of generators and symmetries upside down: every node
    and the boundary swap inputs with outputs, and each generator is renamed
    through `rename` (names it lacks are kept).  With every renamed
    generator assigned the transpose of the original's matrix, the flipped
    circuit evaluates to the transpose.  Nodes come out in reverse order, so
    contraction meets them in the flipped flow order."""
    nodes = {}
    for nid in reversed(list(c.nodes)):
        n = c.nodes[nid]
        if n.kind not in ("gen", "swap"):
            raise IllTyped(nid, f"cannot reverse a {n.kind} node")
        name = rename.get(n.name, n.name) if n.kind == "gen" else None
        nodes[nid] = Node(kind=n.kind, ins=n.outs, outs=n.ins, name=name,
                          dom=n.cod, cod=n.dom)
    return Circuit(c.wires, nodes, c.outputs, c.inputs)


def substitute(c: Circuit, table: Mapping[str, Circuit]) -> Circuit:
    """Replace each generator whose name is in `table` by that circuit: its
    boundary is glued to the generator's ports and its nodes are inlined,
    under fresh ids, where the generator stood in node order.  Replacements
    are not substituted again; generators inside dagger boxes are kept.  A
    replacement whose boundary types differ from the generator's ports
    raises `IllTyped`, and so does one that passes a wire straight through,
    since that wire would join two of the circuit's wires into one."""
    wires = dict(c.wires)
    nodes: dict[str, Node] = {}
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
        wire_map = dict(zip(sub.inputs + sub.outputs, n.ins + n.outs))
        for w, t in sub.wires.items():
            if w not in wire_map:
                wire_map[w] = fresh_wire()
                wires[wire_map[w]] = t
        for node in sub.nodes.values():
            nodes[fresh_node()] = node.rewired(wire_map)
    return Circuit(wires, nodes, c.inputs, c.outputs)


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


def isomorphic(c1: Circuit, c2: Circuit) -> bool:
    """Port-graph isomorphism respecting boundary order, wire types, node
    kinds/names, port order, and thinning anchors.  Backtracking search;
    intended for the small circuits this package manipulates."""
    if (c1.input_types() != c2.input_types()
            or c1.output_types() != c2.output_types()
            or len(c1.wires) != len(c2.wires)
            or len(c1.nodes) != len(c2.nodes)):
        return False
    if Counter(_node_signature(c1, n) for n in c1.nodes) != \
            Counter(_node_signature(c2, n) for n in c2.nodes):
        return False

    wire_map: dict[str, str] = {}
    node_map: dict[str, str] = {}

    def match_wire(w1: str, w2: str) -> bool:
        if w1 in wire_map:
            return wire_map[w1] == w2
        if w2 in wire_map.values():
            return False
        if c1.wires[w1] != c2.wires[w2]:
            return False
        wire_map[w1] = w2
        return True

    for a, b in itertools.chain(zip(c1.inputs, c2.inputs),
                                zip(c1.outputs, c2.outputs)):
        if not match_wire(a, b):
            return False

    nodes1 = sorted(c1.nodes)
    used2: set[str] = set()

    def try_node(i: int, saved_wm: dict[str, str]) -> bool:
        if i == len(nodes1):
            return all(_thin_ok(n1) for n1 in nodes1)
        n1 = nodes1[i]
        s1 = _node_signature(c1, n1)
        for n2 in sorted(c2.nodes):
            if n2 in used2 or _node_signature(c2, n2) != s1:
                continue
            snapshot = dict(wire_map)
            ok = True
            for w1, w2 in zip(c1.nodes[n1].ports(), c2.nodes[n2].ports()):
                if not match_wire(w1, w2):
                    ok = False
                    break
            if ok and c1.nodes[n1].inner is not None:
                ok = isomorphic(c1.nodes[n1].inner, c2.nodes[n2].inner)
            if ok:
                node_map[n1] = n2
                used2.add(n2)
                if try_node(i + 1, snapshot):
                    return True
                used2.discard(n2)
                del node_map[n1]
            wire_map.clear()
            wire_map.update(snapshot)
        return False

    def _thin_ok(n1: str) -> bool:
        t1 = c1.nodes[n1].thin
        if t1 is None:
            return True
        t2 = c2.nodes[node_map[n1]].thin
        return t1 in wire_map and wire_map[t1] == t2

    return try_node(0, dict(wire_map))
