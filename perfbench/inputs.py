"""Input generators for the benchmark workloads.

Everything here is built through ldckit's public API from a seeded
`random.Random` / `numpy.random.Generator`; the program only ever sees the
resulting circuits, gadget files and matrices.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ldckit import (Atom, Gadget, ModelEnv, Par, Tensor, expand_wire,
                    generator, identity, par, seq, swap)
from ldckit.circuit import par_elim, par_intro, tensor_elim, tensor_intro

ATOMS = [Atom(x) for x in "ABCDE"]


# -- proof circuits from sequent rules -------------------------------------
#
# A proof of the two-sided sequent Gamma |- Delta is a circuit with inputs
# Gamma and outputs Delta.  Every rule below is one of the sequent rules of
# the weakly distributive calculus, so every circuit they build is valid by
# sequentialization.  Cuts go through a fresh one-wire generator, which
# keeps the unexpanded nets free of redexes: their normal form is
# themselves.

@dataclass
class Proof:
    circuit: object
    ins: list
    outs: list

    @property
    def work(self) -> int:
        """Nodes other than symmetries, which boxing dissolves."""
        return sum(1 for n in self.circuit.nodes.values() if n.kind != "swap")


class ProofBuilder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = 0

    def _name(self) -> str:
        self.names += 1
        return f"g{self.names}"

    def axiom(self) -> Proof:
        rng = self.rng
        dom = [rng.choice(ATOMS) for _ in range(rng.randint(1, 2))]
        cod = [rng.choice(ATOMS) for _ in range(rng.randint(1, 2))]
        return Proof(generator(self._name(), dom, cod), dom, cod)

    def _through(self, p: Proof, want) -> Proof:
        """Cut p's last output against a fresh generator to type `want`."""
        h = generator(self._name(), [p.outs[-1]], [want])
        c = seq(p.circuit, par(identity(p.outs[:-1]), h))
        return Proof(c, p.ins, p.outs[:-1] + [want])

    def cut(self, p1: Proof, p2: Proof) -> Proof:
        """Gamma |- Delta, A  and  A, Gamma' |- Delta'  give
        Gamma, Gamma' |- Delta, Delta'."""
        p1 = self._through(p1, p2.ins[0])
        delta, rest = p1.outs[:-1], p2.ins[1:]
        c = seq(par(p1.circuit, identity(rest)),
                par(identity(delta), p2.circuit))
        return Proof(c, p1.ins + rest, delta + p2.outs)

    def tensor_r(self, p1: Proof, p2: Proof) -> Proof:
        a, b = p1.outs[-1], p2.outs[0]
        delta, delta2 = p1.outs[:-1], p2.outs[1:]
        c = seq(par(p1.circuit, p2.circuit),
                par(identity(delta), tensor_intro(a, b), identity(delta2)))
        return Proof(c, p1.ins + p2.ins, delta + [Tensor(a, b)] + delta2)

    def par_l(self, p1: Proof, p2: Proof) -> Proof:
        a, b = p1.ins[-1], p2.ins[0]
        gam, gam2 = p1.ins[:-1], p2.ins[1:]
        c = seq(par(identity(gam), par_elim(a, b), identity(gam2)),
                par(p1.circuit, p2.circuit))
        return Proof(c, gam + [Par(a, b)] + gam2, p1.outs + p2.outs)

    def par_r(self, p: Proof, i: int) -> Proof:
        o = p.outs
        c = seq(p.circuit, par(identity(o[:i]), par_intro(o[i], o[i + 1]),
                               identity(o[i + 2:])))
        return Proof(c, p.ins, o[:i] + [Par(o[i], o[i + 1])] + o[i + 2:])

    def tensor_l(self, p: Proof, i: int) -> Proof:
        g = p.ins
        c = seq(par(identity(g[:i]), tensor_elim(g[i], g[i + 1]),
                    identity(g[i + 2:])), p.circuit)
        return Proof(c, g[:i] + [Tensor(g[i], g[i + 1])] + g[i + 2:], p.outs)

    def exchange(self, p: Proof, i: int, on_outputs: bool) -> Proof:
        if on_outputs:
            o = p.outs
            c = seq(p.circuit, par(identity(o[:i]), swap(o[i], o[i + 1]),
                                   identity(o[i + 2:])))
            return Proof(c, p.ins, o[:i] + [o[i + 1], o[i]] + o[i + 2:])
        g = p.ins
        c = seq(par(identity(g[:i]), swap(g[i + 1], g[i]),
                    identity(g[i + 2:])), p.circuit)
        return Proof(c, g[:i] + [g[i + 1], g[i]] + g[i + 2:], p.outs)

    def unary(self, p: Proof) -> Proof:
        rng = self.rng
        moves = []
        if len(p.outs) >= 2:
            moves += ["par_r", "exch_out"]
        if len(p.ins) >= 2:
            moves += ["tensor_l", "exch_in"]
        if not moves:
            return p
        move = rng.choice(moves)
        if move in ("par_r", "exch_out"):
            i = rng.randrange(len(p.outs) - 1)
            return self.par_r(p, i) if move == "par_r" \
                else self.exchange(p, i, True)
        i = rng.randrange(len(p.ins) - 1)
        return self.tensor_l(p, i) if move == "tensor_l" \
            else self.exchange(p, i, False)

    def binary(self, p1: Proof, p2: Proof) -> Proof:
        rule = self.rng.choice((self.cut, self.tensor_r, self.par_l))
        return rule(p1, p2)

    def proof(self, target: int) -> Proof:
        """A valid proof circuit with `target` to 5% more nodes, not
        counting symmetries (which boxing dissolves)."""
        while True:
            p = self._grow(target)
            if p.work <= target * 1.05 + 1:
                return p

    def _grow(self, target: int) -> Proof:
        rng = self.rng
        pool = [self.axiom()]
        while True:
            size = sum(p.work for p in pool)
            if size >= target and len(pool) == 1:
                return pool[0]
            r = rng.random()
            if len(pool) >= 2 and (size >= target or r < 0.45):
                i, j = rng.sample(range(len(pool)), 2)
                p1, p2 = pool[i], pool[j]
                pool = [p for k, p in enumerate(pool) if k not in (i, j)]
                pool.append(self.binary(p1, p2))
            elif r < 0.75:
                pool.append(self.axiom())
            else:
                k = rng.randrange(len(pool))
                pool[k] = self.unary(pool[k])


def mix(b: ProofBuilder, p1: Proof, p2: Proof) -> Proof:
    """Two nets side by side: disconnected, so invalid."""
    return Proof(par(p1.circuit, p2.circuit), p1.ins + p2.ins,
                 p1.outs + p2.outs)


def double_cut(b: ProofBuilder, p1: Proof, p2: Proof) -> Proof:
    """Cut along two wires: in every switching the two cut wires close a
    cycle through the two premises, so invalid."""
    x, y = b.rng.choice(ATOMS), b.rng.choice(ATOMS)
    h1 = generator(b._name(), [p1.outs[-1]], [x, y])
    h2 = generator(b._name(), [x, y], [p2.ins[0]])
    delta, rest = p1.outs[:-1], p2.ins[1:]
    c = seq(par(p1.circuit, identity(rest)),
            par(identity(delta), h1, identity(rest)),
            par(identity(delta), h2, identity(rest)),
            par(identity(delta), p2.circuit))
    return Proof(c, p1.ins + rest, delta + p2.outs)


def expanded(p: Proof, rng: random.Random, count: int):
    """The net with `count` of its compound wires expanded, so that
    normalizing has exactly `count` redex pairs to erase."""
    c = p.circuit
    compound = sorted(w for w, t in c.wires.items()
                      if isinstance(t, (Tensor, Par)))
    for w in rng.sample(compound, min(count, len(compound))):
        c = expand_wire(c, w)
    return c


# -- gadgets ----------------------------------------------------------------

def orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random real orthogonal matrix (QR of a Gaussian, sign-fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _power(q: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(1)
    for _ in range(k):
        out = np.kron(out, q)
    return out


def rotated(g: Gadget, q: np.ndarray) -> Gadget:
    """The gadget under the change of basis q on its one atom.  A morphism
    A^r <- A^c becomes q^(x)r . M . (q^T)^(x)c; cups and caps built from
    the identity are invariant because q is real orthogonal."""
    n = q.shape[0]
    morphs = {}
    for role, m in g.morphisms.items():
        r = round(np.log(m.shape[0]) / np.log(n))
        c = round(np.log(m.shape[1]) / np.log(n))
        morphs[role] = _power(q, r) @ m @ _power(q, c).T
    return Gadget(g.kind, dict(g.objects), morphs, g.env, g.gradings)


def cyclic_bialgebra(n: int) -> Gadget:
    """Group algebra of Z_n with the copy/delete comonoid and identity cups
    and caps: the qubit-zx gadget generalised from n = 2."""
    m = np.zeros((n, n * n), dtype=complex)
    d = np.zeros((n * n, n), dtype=complex)
    for i in range(n):
        d[i * n + i, i] = 1
        for j in range(n):
            m[(i + j) % n, i * n + j] = 1
    u = np.zeros((n, 1), dtype=complex)
    u[0, 0] = 1
    k = np.ones((1, n), dtype=complex)
    cup = np.eye(n, dtype=complex).reshape(n * n, 1)
    morphs = {"m": m, "u": u, "d": d, "k": k,
              "alpha": np.eye(n, dtype=complex)}
    for r in ("eta_L", "eta_R", "tau_L", "tau_R"):
        morphs[r] = cup.copy()
    for r in ("eps_L", "eps_R", "gam_L", "gam_R"):
        morphs[r] = cup.T.copy()
    atom = Atom(f"Z{n}")
    env = ModelEnv.make({atom.name: n})
    return Gadget("linear_bialgebra", {"A": atom, "B": atom}, morphs, env)


# -- layered circuits ---------------------------------------------------------

@dataclass
class Layered:
    """Gates on adjacent wire pairs; gates[l] = (first wire, name)."""
    dims: list
    gates: list
    matrices: dict

    def __post_init__(self):
        atoms = [Atom(f"X{i}") for i in range(len(self.dims))]
        self.circuit = seq(*(par(identity(atoms[:i]),
                                 generator(name, atoms[i:i + 2],
                                           atoms[i:i + 2]),
                                 identity(atoms[i + 2:]))
                             for i, name in self.gates))

    def env(self):
        env = ModelEnv.make({f"X{i}": d for i, d in enumerate(self.dims)})
        for name, m in self.matrices.items():
            env.assign(name, m)
        return env

    def sweep_flops(self) -> float:
        """FLOPs of contracting the layers one by one into the full matrix:
        a plan that costs more than this is a planning fault."""
        n = int(np.prod(self.dims))
        return 2.0 * n * n * sum(self.dims[i] * self.dims[i + 1]
                                 for i, _ in self.gates)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The product of the Kronecker layers I (x) G (x) I applied to the
        columns of v, one layer at a time, in NumPy alone."""
        for i, name in self.gates:
            left = int(np.prod(self.dims[:i]))
            pair = self.dims[i] * self.dims[i + 1]
            v = v.reshape(left, pair, -1, v.shape[-1])
            v = np.einsum("ab,xbyc->xayc", self.matrices[name], v)
        return v.reshape(-1, v.shape[-1])


def greedy_flops(lay: Layered) -> float:
    """FLOPs of NumPy's greedy plan for the single einsum call that
    `evaluate` makes on this circuit: one index per wire in wire order, an
    identity joining the two ends of a wire no gate touches, then one
    operand per gate in node order."""
    c = lay.circuit
    dim = {f"X{i}": d for i, d in enumerate(lay.dims)}
    index = {w: i for i, w in enumerate(c.wires)}
    args = []
    for w in c.inputs:
        if w in c.outputs and c.producer(w) is None:
            index[w, 2] = len(index)
            args += [np.empty((dim[c.wires[w].name],) * 2), [index[w, 2],
                                                             index[w]]]
    for n in c.nodes.values():
        shape = [dim[c.wires[w].name] for w in n.outs + n.ins]
        args += [np.empty(shape), [index[w] for w in n.outs + n.ins]]
    args.append([index.get((w, 2), index[w]) for w in c.outputs]
                + [index[w] for w in c.inputs])
    report = np.einsum_path(*args, optimize="greedy")[1]
    line = next(x for x in report.splitlines() if "Optimized FLOP" in x)
    return float(line.split(":")[1])


def layered(rng: np.random.Generator, dims: list, n_gates: int,
            brickwork: bool = False) -> Layered:
    """Dense random gates at random positions, or cycling through the
    positions in order (brickwork)."""
    gates, matrices = [], {}
    for g in range(n_gates):
        i = g % (len(dims) - 1) if brickwork \
            else int(rng.integers(len(dims) - 1))
        d = dims[i] * dims[i + 1]
        name = f"G{g}"
        matrices[name] = (rng.standard_normal((d, d))
                          + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
        gates.append((i, name))
    return Layered(list(dims), gates, matrices)
