"""The four benchmark workloads.

A workload builds its inputs from the seed through ldckit's public API,
then hands out one round of operations.  An operation is one call of
`ldckit.cli.main(argv)` made in-process, or one call of a public API
function; its check compares the output with a result worked out apart
from the program, or with a property the method must have.  Checks run
between operations and are not timed.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import ldckit
import ldckit.cli
import checks
import inputs

TOL = 1e-9


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def cli(argv: list[str]) -> tuple[int, str]:
    """One in-process command-line call: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = ldckit.cli.main(argv)
    return rc, out.getvalue()


def _geometric(lo: float, hi: float, n: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / max(1, n - 1))) for i in range(n)]


class Workload:
    """Subclasses fill `self.ops` (one round) in `build`."""

    # Rounds in a run of `seconds`: each round takes about this long here.
    round_s = 1.0

    def __init__(self, seed: int, tiny: bool, workdir: Path, root: Path):
        self.seed, self.tiny = seed, tiny
        self.workdir, self.root = workdir, root
        self.ops: list[Op] = []

    def rounds(self, seconds: float) -> int:
        return 1 if self.tiny else max(1, round(seconds / self.round_s))

    def warmup(self) -> list[Op]:
        """The first operation of each kind."""
        seen, out = set(), []
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                out.append(op)
        return out


# -- validate -----------------------------------------------------------------

@dataclass
class NetFile:
    path: Path
    valid: bool
    base: Optional[dict] = None    # the unexpanded net, for expanded files
    arity: Optional[dict] = None   # generator name -> number of inputs


class Validate(Workload):
    """`ldckit validate` and `ldckit normalize -o` on circuit files."""

    round_s = 7.0

    def build(self) -> None:
        rng = random.Random(self.seed)
        b = inputs.ProofBuilder(rng)
        # Sizes count nodes other than symmetries.  Two clusters of
        # equal-sized nets hold the median and the 90th percentile, so that
        # neither falls between two input classes.
        if self.tiny:
            small, spread, high, large = [10] * 4, [16, 20], [], []
        else:
            small, spread = [14] * 60, _geometric(18, 32, 10)
            high, large = [40] * 24, [85, 85]
        files: list[NetFile] = []

        def write(name, circuit, valid, **extra):
            path = self.workdir / f"{name}.json"
            path.write_bytes(ldckit.serialize(circuit))
            files.append(NetFile(path, valid, **extra))

        proofs = [b.proof(t) for t in small + spread + high + large]
        for i, p in enumerate(proofs):
            write(f"valid-{i:02d}", p.circuit, True)
        # invalid: two small nets side by side, or cut along two wires
        for i in range(max(1, len(small) // 7)):
            p1, p2 = proofs[2 * i], proofs[2 * i + 1]
            bad = inputs.mix(b, p1, p2) if i % 2 == 0 \
                else inputs.double_cut(b, p1, p2)
            write(f"invalid-{i:02d}", bad.circuit, False)
        arity = {n.name: len(n.ins) for p in proofs
                 for n in p.circuit.nodes.values() if n.kind == "gen"}
        # the spread of sizes again, with redexes inserted
        for i, p in enumerate(proofs[len(small):len(small) + 8]):
            base = json.loads(ldckit.serialize(p.circuit))
            c = inputs.expanded(p, rng, 1 + i % 4)
            write(f"expanded-{i:02d}", c, True, base=base, arity=arity)
        corpus = [] if self.tiny else sorted(
            (self.root / "fixtures").glob("*.json"))
        for path in corpus:
            doc = json.loads(path.read_text())
            files.append(NetFile(path, doc["expect"] == "valid"))

        self.dims = {a.name: 2 for a in inputs.ATOMS}
        mrng = np.random.default_rng(self.seed)

        def dim(types):
            return int(np.prod([checks.type_dim(
                ldckit.objects.type_to_json(t), self.dims) for t in types]))
        self.mats = {n.name: mrng.standard_normal((dim(n.cod), dim(n.dom)))
                     for p in proofs for n in p.circuit.nodes.values()
                     if n.kind == "gen"}
        # Boundary vectors by position, so both sides see the same ones.
        self.probes = [(_vectors(mrng), _vectors(mrng)) for _ in range(2)]
        self.normal_verdicts: dict[bytes, bool] = {}
        self.denotations: dict[Path, object] = {}

        for f in files:
            self.ops.append(Op("validate", f.path.name,
                               self._validate(f), self._check_validate(f)))
        self.normalized: dict[str, tuple[Path, Path]] = {}
        for f in files:
            if f.base is not None or not f.valid or f.path.parent != \
                    self.workdir:
                out = self.workdir / f"normal-{f.path.name}"
                self.normalized[f.path.name] = (f.path, out)
                self.ops.append(Op("normalize", f.path.name,
                                   self._normalize(f, out),
                                   self._check_normalize(f, out)))

    def _validate(self, f: NetFile):
        argv = ["validate", str(f.path)]
        return lambda: cli(argv)

    def _check_validate(self, f: NetFile):
        want = (0, "valid") if f.valid else (2, "invalid")

        def check(out):
            rc, text = out
            got = (rc, text.strip().splitlines()[-1] if text.strip() else "")
            return None if got == want else \
                f"{f.path.name}: expected {want}, got {got}"
        return check

    def _normalize(self, f: NetFile, out: Path):
        argv = ["normalize", str(f.path), "-o", str(out)]
        return lambda: cli(argv)[0]

    def _check_normalize(self, f: NetFile, out: Path):
        def check(rc):
            if rc != 0:
                return f"{f.path.name}: normalize exited {rc}"
            data = out.read_bytes()
            doc = json.loads(data)
            left = checks.redexes(doc)
            if left:
                return f"{f.path.name}: redex left in normal form: {left[0]}"
            if f.base is not None:
                if len(doc["nodes"]) != len(f.base["nodes"]) or \
                        checks.node_multiset(doc) != \
                        checks.node_multiset(f.base):
                    return (f"{f.path.name}: normal form has "
                            f"{len(doc['nodes'])} nodes, the unexpanded "
                            f"net {len(f.base['nodes'])}")
                err = self._same_denotation(f, doc)
                if err:
                    return err
            if data not in self.normal_verdicts:
                self.normal_verdicts[data] = \
                    ldckit.validate(ldckit.parse(data)).valid
            if self.normal_verdicts[data] != f.valid:
                return f"{f.path.name}: normalizing changed the verdict"
            return None
        return check

    def _same_denotation(self, f: NetFile, doc: dict) -> Optional[str]:
        if f.path not in self.denotations:
            src = json.loads(f.path.read_bytes())
            self.denotations[f.path] = checks.denote(
                src, self.dims, f.arity, self.mats, self.probes)
        want = self.denotations[f.path]
        got = checks.denote(doc, self.dims, f.arity, self.mats, self.probes)
        if want is None or got is None:   # too large to check
            return None
        if not checks.close(got, want):
            return f"{f.path.name}: normalizing changed the denotation"
        return None


def _vectors(rng):
    table = {}

    def vector(pos, dim):
        if (pos, dim) not in table:
            table[pos, dim] = rng.standard_normal(dim) \
                + 1j * rng.standard_normal(dim)
        return table[pos, dim]
    return vector


# -- check --------------------------------------------------------------------

# Verdicts the documentation states: (suite, gadget) -> (passes, tol).
DOCUMENTED = {
    ("complementary", "qubit-zx"): (True, 1e-12),
    ("hopf", "qubit-zx"): (True, 1e-12),
    ("dagger-linear-monoid", "weil"): (True, TOL),
    ("dagger-linear-monoid", "quad4"): (True, TOL),
    ("frobenius-coincidence", "weil"): (False, TOL),
    ("frobenius-coincidence", "quad4"): (False, TOL),
    ("dagger-linear-monoid", "quad4-flip"): (False, TOL),
}

_RESIDUAL = re.compile(r"^(.+): ([0-9.e+-]+)$")


def check_report(text: str, rc: int, tol: float) -> tuple[Optional[str],
                                                           bool, float]:
    """Parse `ldckit check` output; (fault, passed, worst residual)."""
    lines = text.strip().splitlines()
    verdict = lines[-1] if lines else ""
    if (rc, verdict) not in ((0, "pass"), (2, "fail")):
        return f"exit {rc} with verdict {verdict!r}", False, 0.0
    residuals = [float(m.group(2)) for m in map(_RESIDUAL.match, lines[:-1])
                 if m]
    if len(residuals) != len(lines) - 1 or not residuals:
        return "unreadable residual lines", False, 0.0
    worst = max(residuals)
    if rc == 0 and worst > tol:
        return f"passed with residual {worst:.3e} > tol {tol:g}", True, worst
    return None, rc == 0, worst


class Check(Workload):
    """`ldckit check` on every applicable (suite, gadget) pair, for the
    built-in gadgets and for each under a random orthogonal change of
    basis."""

    round_s = 1.45
    ROTATIONS = 4

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        names = ["qubit-zx", "weil"] if self.tiny \
            else ldckit.fixture_names()
        self.verdicts: dict[tuple, bool] = {}
        pairs = []
        for name in names:
            g = ldckit.load_gadget(name)
            n = ldckit.interp(g.object("A"), g.env)[0]
            paths = []
            for r in range(1 if self.tiny else self.ROTATIONS):
                path = self.workdir / f"rotated{r}-{name}.json"
                path.write_text(json.dumps(ldckit.gadget_to_json(
                    inputs.rotated(g, inputs.orthogonal(n, rng)))))
                paths.append(str(path))
            for suite in ldckit.SUITES.values():
                if g.has(*suite.roles):
                    pairs.append((suite.name, name, paths))
        if self.tiny:
            pairs = pairs[::4]
        for suite, name, paths in pairs:
            tol = DOCUMENTED.get((suite, name), (None, TOL))[1]
            for gadget in [name] + paths:
                argv = ["check", "--suite", suite, "--gadget", gadget,
                        "--tol", repr(tol)]
                self.ops.append(Op("check", f"{suite}/{gadget}",
                                   (lambda a=argv: cli(a)),
                                   self._check(suite, name, gadget, tol)))

    def _check(self, suite, name, gadget, tol):
        rotated = gadget != name

        def check(out):
            rc, text = out
            fault, passed, worst = check_report(text, rc, tol)
            if fault:
                return f"{suite}/{gadget}: {fault}"
            if rotated and self.verdicts.get((suite, name)) != passed:
                return (f"{suite}/{name}: verdict changes under an "
                        "orthogonal change of basis")
            self.verdicts[(suite, name)] = passed
            doc = DOCUMENTED.get((suite, name))
            if doc and doc[0] != passed:
                return f"{suite}/{gadget}: documented verdict is {doc[0]}"
            if doc and not doc[0] and suite.startswith("frobenius") \
                    and worst < 1e3 * tol:
                return f"{suite}/{gadget}: fails by only {worst:.3e}"
            return None
        return check


# -- evaluate -------------------------------------------------------------------

def _probe_laws(g, rng) -> bool:
    """Associativity, coassociativity, (co)unit and the bialgebra law of a
    one-object gadget, tested on random vectors with np.kron."""
    m, u, d, k = (np.asarray(g.morphisms[r]) for r in "mudk")
    n = u.shape[0]
    x, y, z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(3))
    ok = checks.close(m @ np.kron(m @ np.kron(x, y), z),
                      m @ np.kron(x, m @ np.kron(y, z)))
    ok &= checks.close(m @ np.kron(u[:, 0], x), x)
    ok &= checks.close(m @ np.kron(x, u[:, 0]), x)
    dx = (d @ x).reshape(n, n)
    ok &= checks.close((d @ dx).reshape(-1), (dx @ d.T).reshape(-1))
    ok &= checks.close(k[0] @ dx, x) and checks.close(dx @ k[0], x)
    w = np.kron(d @ x, d @ y).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    ok &= checks.close(d @ (m @ np.kron(x, y)),
                       (m @ w.reshape(n * n, n * n) @ m.T).reshape(-1))
    ok &= checks.close(d @ u[:, 0], np.kron(u[:, 0], u[:, 0]))
    return bool(ok)


class Evaluate(Workload):
    """`evaluate` on random layered circuits and `ldckit check` on rotated
    Z_n group-algebra/copy gadgets: large tensors, few of them."""

    round_s = 5.4
    SUITES = ("linear-monoid", "linear-comonoid", "linear-bialgebra",
              "complementary")

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        # The circuit shapes (wire dimensions, gate count) are the same for
        # every seed; the seed draws gate placements and matrices.  Most
        # shapes are drawn at random.  A cluster of one heavier brickwork
        # circuit, which differs only in its matrices, holds the 90th
        # percentile, so that it does not fall between the circuits and the
        # Z_n checks.
        shapes = np.random.default_rng(0)
        drawn = []
        while len(drawn) < (4 if self.tiny else 90):
            k = int(shapes.integers(3, 6))
            dims = [int(x) for x in shapes.integers(3, 17, size=k)]
            if 27 <= int(np.prod(dims)) <= (64 if self.tiny else 500):
                drawn.append((dims, int(shapes.integers(4, (52 - k) // 2
                                                        + 1))))
        self.layered = []
        for dims, gates in drawn:
            # NumPy's greedy plan is up to 1e5 times too costly on a few
            # per cent of gate placements (seconds to minutes for one
            # call); a placement whose plan costs more than contracting the
            # layers one by one is drawn again, see CHANGES.md.
            while True:
                lay = inputs.layered(rng, dims, gates)
                if inputs.greedy_flops(lay) <= lay.sweep_flops():
                    break
            self.layered.append(lay)
        if not self.tiny:
            self.layered += [inputs.layered(rng, [8, 8, 8], 12, True)
                             for _ in range(25)]
        self.rng = np.random.default_rng(self.seed + 1)
        for i, lay in enumerate(self.layered):
            c, env = lay.circuit, lay.env()
            self.ops.append(Op("evaluate", f"layered-{i}-{lay.dims}",
                               (lambda c=c, env=env: ldckit.evaluate(c, env)),
                               self._check_layered(i)))
        sizes = [4, 6] if self.tiny else [16, 24, 32]
        self.laws: dict[int, bool] = {}
        for n in sizes:
            g = inputs.rotated(inputs.cyclic_bialgebra(n),
                               inputs.orthogonal(n, rng))
            self.laws[n] = _probe_laws(g, rng)
            path = self.workdir / f"z{n}.json"
            path.write_text(json.dumps(ldckit.gadget_to_json(g)))
            for suite in self.SUITES:
                argv = ["check", "--suite", suite, "--gadget", str(path)]
                self.ops.append(Op("check", f"{suite}/Z{n}",
                                   (lambda a=argv: cli(a)),
                                   self._check_cyclic(suite, n)))

    def _check_layered(self, i):
        """Freivalds' test: M v against the layers applied to v, for random
        complex v."""
        def check(matrix):
            lay = self.layered[i]
            v = self.rng.standard_normal((matrix.shape[1], 3)) \
                + 1j * self.rng.standard_normal((matrix.shape[1], 3))
            if not checks.close(matrix @ v, lay.apply(v)):
                return f"layered circuit {i}: matrix differs from the " \
                       "product of its Kronecker layers"
            return None
        return check

    def _check_cyclic(self, suite, n):
        def check(out):
            rc, text = out
            fault, passed, _ = check_report(text, rc, TOL)
            if fault:
                return f"{suite}/Z{n}: {fault}"
            if passed != self.laws[n]:
                return f"{suite}/Z{n}: verdict {passed} but the laws " \
                       f"recomputed with np.kron say {self.laws[n]}"
            return None
        return check


# -- exp ------------------------------------------------------------------------

# (dim A, dim B, dim C, degree): bang_matrix of f: A -> B, h: B -> C and
# h.f, each on dense random matrices.
BANG_TRIPLES = [
    (4, 5, 5, 3), (4, 6, 6, 3), (5, 6, 4, 3), (3, 4, 5, 4), (4, 3, 6, 4),
    (5, 5, 4, 4), (3, 2, 4, 5), (4, 3, 3, 5), (2, 3, 3, 6), (2, 2, 3, 7),
    (3, 3, 2, 6), (3, 5, 2, 5), (5, 5, 4, 3), (3, 4, 6, 4), (4, 3, 5, 4),
    (6, 6, 4, 3), (3, 3, 4, 5), (4, 5, 6, 3), (5, 5, 5, 3), (3, 5, 4, 4),
    (4, 6, 3, 4), (6, 6, 3, 3), (4, 5, 5, 4), (3, 2, 3, 6), (3, 4, 3, 5),
    (4, 6, 5, 3), (6, 5, 4, 3), (3, 4, 4, 4), (3, 5, 5, 4), (4, 4, 3, 4),
    (4, 4, 6, 4), (5, 4, 4, 4), (4, 3, 2, 5), (5, 4, 5, 3),
]
TINY_TRIPLES = [(2, 2, 2, 3), (2, 3, 2, 3)]


class Exp(Workload):
    """`ldckit exp demo --degree 2`, `bang_matrix`, `monoidal_structure`
    at product dimension 60 and `comonad_coassoc_report`."""

    round_s = 3.7

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        g = ldckit.load_gadget("qubit-zx")
        path = self.workdir / "rotated-qubit-zx.json"
        path.write_text(json.dumps(ldckit.gadget_to_json(
            inputs.rotated(g, inputs.orthogonal(2, rng)))))
        for gadget in ("qubit-zx", str(path)):
            argv = ["exp", "demo", "--gadget", gadget, "--degree", "2"]
            self.ops.append(Op("demo", gadget, (lambda a=argv: cli(a)),
                               self._check_demo(gadget)))

        a, b = (2, 2) if self.tiny else (2, 3)
        ea = ldckit.build_exp(a, 2, with_duplication=False)
        eb = ldckit.build_exp(b, 2, with_duplication=False)
        self.ops.append(Op("monoidal", f"{a}x{b}",
                           lambda: ldckit.monoidal_structure(ea, eb),
                           self._check_monoidal(ea, eb)))

        self.outputs: dict[tuple, np.ndarray] = {}
        for t, (da, db, dc, deg) in enumerate(
                TINY_TRIPLES if self.tiny else BANG_TRIPLES):
            f = _dense(rng, db, da)
            h = _dense(rng, dc, db)
            bases = {x: ldckit.MultisetBasis([str(i) for i in range(x)], deg)
                     for x in {da, db, dc}}
            for role, mat, src, dst in (("f", f, da, db), ("h", h, db, dc),
                                        ("hf", h @ f, da, dc)):
                self.ops.append(Op(
                    "bang", f"{role}{t}:{src}->{dst}@{deg}",
                    (lambda m=mat, x=bases[src], y=bases[dst]:
                     ldckit.bang_matrix(m, x, y)),
                    self._check_bang(t, role, mat, deg)))
        for base, deg in ([(2, 2)] if self.tiny
                          else [(2, 2), (3, 2), (2, 3), (3, 3)]):
            self.ops.append(Op(
                "coassoc", f"{base}@{deg}",
                (lambda x=base, d=deg: ldckit.comonad_coassoc_report(x, d)),
                _check_coassoc))

    def _check_demo(self, gadget):
        def check(out):
            rc, text = out
            m = re.search(r"recovery error ([0-9.e+-]+)", text)
            if rc != 0 or not m or float(m.group(1)) > 10 * TOL:
                return f"exp demo {gadget}: exit {rc}, " \
                       f"{m.group(0) if m else 'no recovery error'}"
            return None
        return check

    def _check_monoidal(self, ea, eb):
        """F;eps = eps_A (x) eps_B: the singleton rows of the lift are the
        Kronecker product of the two derelictions."""
        na, nb = len(ea.basis.base), len(eb.basis.base)

        def dereliction(n, dim):
            e = np.zeros((n, dim))
            e[np.arange(n), 1 + np.arange(n)] = 1
            return e

        want = np.kron(dereliction(na, ea.dim), dereliction(nb, eb.dim))

        def check(out):
            _, m_tensor, nu = out
            if not checks.close(m_tensor[1:1 + na * nb], want):
                return "monoidal_structure: F;eps differs from eps_A (x) eps_B"
            if not checks.close(nu, m_tensor.conj().T):
                return "monoidal_structure: costructure is not the dagger"
            return None
        return check

    def _check_bang(self, t, role, mat, deg):
        small = max(mat.shape) <= 3 and deg <= 5

        def check(out):
            if small and not checks.close(out, checks.symmetric_power(mat,
                                                                      deg)):
                return f"bang_matrix {role}{t}: differs from the " \
                       "symmetric power of f"
            self.outputs[(t, role)] = out
            if role == "hf":
                comp = self.outputs[(t, "h")] @ self.outputs[(t, "f")]
                if not checks.close(out, comp, 1e-8):
                    return f"bang_matrix triple {t}: !(h.f) != !h.!f"
            return None
        return check


def _dense(rng, rows, cols) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(cols)


def _check_coassoc(out) -> Optional[str]:
    ok, worst, compared = out
    if not ok or compared < 1 or worst > TOL:
        return f"comonad_coassoc_report: {out}"
    return None


WORKLOADS = {"validate": Validate, "check": Check, "evaluate": Evaluate,
             "exp": Exp}
