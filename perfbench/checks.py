"""Reference computations for the benchmark's correctness checks.

These work on the JSON documents and matrices the program hands back and
use NumPy alone, never ldckit, so a fault in the program cannot hide in
its own check.  Each check returns None when the output is right and a
one-line description of the fault otherwise.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

import numpy as np

# (inputs, outputs) of every fixed-arity node kind; a node's ports list its
# inputs first.
ARITY = {
    "tensor_intro": (2, 1), "tensor_elim": (1, 2),
    "par_intro": (2, 1), "par_elim": (1, 2),
    "top_intro": (0, 1), "top_elim": (1, 0),
    "bot_intro": (0, 1), "bot_elim": (1, 0),
    "swap": (2, 2),
}


def node_multiset(doc: dict) -> Counter:
    return Counter((n["kind"], n.get("name")) for n in doc["nodes"])


def redexes(doc: dict) -> list[str]:
    """The reduction redexes left in a circuit document: an introduction
    feeding the matching elimination, an elimination whose two outputs feed
    the matching introduction in order, and the thinned unit pairs.  A pair
    is a redex only when no other node is thinned onto the wires it
    erases."""
    nodes = doc["nodes"]
    consumer, producer = {}, {}
    for i, n in enumerate(nodes):
        if n["kind"] in ARITY:
            k = ARITY[n["kind"]][0]
            for w in n["ports"][:k]:
                consumer[w] = i
            for w in n["ports"][k:]:
                producer[w] = i
    thinned = Counter(n["thin"] for n in nodes if n.get("thin") is not None)

    def kind(i):
        return nodes[i]["kind"] if i is not None else None

    found = []
    for i, n in enumerate(nodes):
        k, ports = n["kind"], n["ports"]
        for conn in ("tensor", "par"):
            if k == f"{conn}_intro":
                w = ports[2]
                if kind(consumer.get(w)) == f"{conn}_elim" \
                        and not thinned[w]:
                    found.append(f"{conn} intro-elim on {w}")
            if k == f"{conn}_elim":
                a, b = ports[1], ports[2]
                j = consumer.get(a)
                if kind(j) == f"{conn}_intro" and nodes[j]["ports"][:2] \
                        == [a, b] and not thinned[a] and not thinned[b]:
                    found.append(f"{conn} elim-intro on {a},{b}")
        if k in ("top_intro", "bot_intro"):
            w = ports[0]
            j = consumer.get(w)
            others = sum(1 for x, m in enumerate(nodes)
                         if m.get("thin") == w and x not in (i, j))
            if kind(j) == k.replace("intro", "elim") and not others:
                found.append(f"{k[:3]} intro-elim on {w}")
        if k == "top_elim":
            t = n["thin"]
            if kind(producer.get(t)) == "top_intro" and thinned[t] == 1:
                found.append(f"top elim-intro on {t}")
        if k == "bot_intro":
            a = n["thin"]
            if kind(consumer.get(a)) == "bot_elim" and thinned[a] == 1:
                found.append(f"bot intro-elim on {a}")
    return found


def type_dim(t: dict, dims: dict) -> int:
    key, val = next(iter(t.items()))
    if key == "atom":
        return dims[val]
    if key in ("top", "bot"):
        return 1
    if key in ("tensor", "par"):
        return type_dim(val[0], dims) * type_dim(val[1], dims)
    return type_dim(val, dims)  # dagger


# Elements of the largest intermediate a denotation check may build, so
# that checking does not raise the process's peak memory.
MAX_INTERMEDIATE = 2 ** 16


def denote(doc: dict, dims: dict, arity: dict, mats: dict,
           probes: list) -> Optional[list]:
    """The circuit document's matrix sandwiched between random boundary
    vectors: for each probe (one vector per input position, one covector
    per output position) the scalar w^T M v, where M maps the tensored
    inputs to the parred outputs.  `arity` gives each generator name's
    number of inputs, `mats` its matrix.  The network is contracted one
    operand at a time in the document's node order, which is topological,
    so each intermediate is the state on one cut, and indices are numbered
    per step, so the 52-index limit of one einsum call does not apply.
    Returns None when an intermediate would exceed MAX_INTERMEDIATE
    elements."""
    wdim = {w["id"]: type_dim(w["type"], dims) for w in doc["wires"]}
    index = {w: i for i, w in enumerate(wdim)}
    ops = []
    for w in doc["inputs"]:
        if w in doc["outputs"]:  # a bare wire: join two indices
            index[w + "'"] = len(index)
            ops.append((np.eye(wdim[w]), [index[w + "'"], index[w]]))
    for n in doc["nodes"]:
        k, ports = n["kind"], n["ports"]
        ix = [index[w] for w in ports]
        d = [wdim[w] for w in ports]
        if k == "gen":
            a = arity[n["name"]]
            shape = [wdim[w] for w in ports[a:]] + [wdim[w] for w in ports[:a]]
            ops.append((mats[n["name"]].reshape(shape), ix[a:] + ix[:a]))
        elif k in ("tensor_intro", "par_intro"):
            ops.append((np.eye(d[2]).reshape(d[2], d[0], d[1]),
                        ix[2:] + ix[:2]))
        elif k in ("tensor_elim", "par_elim"):
            ops.append((np.eye(d[0]).reshape(d[1], d[2], d[0]),
                        ix[1:] + ix[:1]))
        elif k == "swap":
            ops += [(np.eye(d[1]), [ix[2], ix[1]]),
                    (np.eye(d[0]), [ix[3], ix[0]])]
        else:  # unit introduction or elimination
            ops.append((np.ones(1), ix))
    values = []
    for vin, wout in probes:
        seq = [(vin(pos, wdim[w]), [index[w]])
               for pos, w in enumerate(doc["inputs"])] + ops + \
              [(wout(pos, wdim[w]), [index.get(w + "'", index[w])])
               for pos, w in enumerate(doc["outputs"])]
        last = {i: pos for pos, (_, ix) in enumerate(seq) for i in ix}
        t, tix = np.ones(()), []
        for pos, (a, ix) in enumerate(seq):
            local = {i: j for j, i in enumerate(dict.fromkeys(tix + ix))}
            keep = [i for i in local if last[i] > pos]
            t = np.einsum(t, [local[i] for i in tix], a,
                          [local[i] for i in ix], [local[i] for i in keep])
            tix = keep
            if t.size > MAX_INTERMEDIATE:
                return None
        values.append(complex(t))
    return values


def close(a, b, tol: float = 1e-9) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and \
        float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def multisets(base: int, degree: int) -> list[tuple]:
    """The multiset basis in its documented order: by size, then
    lexicographic by base index."""
    return [m for n in range(degree + 1)
            for m in itertools.combinations_with_replacement(range(base), n)]


def symmetric_power(f: np.ndarray, degree: int) -> np.ndarray:
    """!f from f^(x)n: grade n of !f sends the symmetrised tensor of a
    multiset m (the sum of its distinct orderings) to the symmetrised
    tensors of the target, read off at each target's sorted ordering."""
    b, a = f.shape
    src, dst = multisets(a, degree), multisets(b, degree)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for n in range(degree + 1):
        fn = np.eye(1)
        for _ in range(n):
            fn = np.kron(fn, f)
        for j, m in enumerate(src):
            if len(m) != n:
                continue
            sym = np.zeros(a ** n, dtype=complex)
            for w in set(itertools.permutations(m)):
                sym[np.ravel_multi_index(w, (a,) * n) if n else 0] += 1
            image = fn @ sym
            for i, mp in enumerate(dst):
                if len(mp) == n:
                    out[i, j] = image[np.ravel_multi_index(mp, (b,) * n)
                                      if n else 0]
    return out
