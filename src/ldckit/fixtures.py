"""Built-in example gadgets and the gadget loader.

Each built-in is made by its builder on demand; none is stored as a file.
The three algebra examples (weil, quad4, quad4-flip) come with canonical
basis cups as their derived dual witnesses: the multiplication tables turn
out to satisfy the dagger-dual equations (or fail them, for quad4-flip)
with this choice already, so no twisted pairing is needed.
No built-in has an exponential object, so none takes a degree bound.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import SchemaError, check_entries
from .gadget import Gadget, gadget_from_json
from .io import _read_document
from .model import ModelEnv
from .objects import Atom


def _algebra_gadget(name: str, labels: list[str],
                    mult: dict[tuple[int, int], dict[int, complex]],
                    unit_idx: int) -> Gadget:
    """Linear monoid from a multiplication table, with canonical-basis
    cups/caps as the dual witness and the identity as the candidate
    coincidence isomorphism."""
    n = len(labels)
    # complex, since quad4's table holds +-i; the gadget narrows weil's
    m = np.zeros((n, n * n), dtype=complex)
    for (i, j), out in mult.items():
        for k, c in out.items():
            m[k, i * n + j] = c
    u = np.zeros((n, 1))
    u[unit_idx, 0] = 1
    eps = np.eye(n).reshape(1, n * n)
    eta = eps.T
    A = Atom(name)
    env = ModelEnv(atoms={name: (n, labels)})
    morphs = {"m": m, "u": u, "alpha": np.eye(n),
              "eta_L": eta, "eps_L": eps, "eta_R": eta, "eps_R": eps}
    return Gadget("linear_monoid", {"A": A, "B": A}, morphs, env)


def weil() -> Gadget:
    """Dual numbers C[x]/(x^2): commutative, passes the dagger linear
    monoid suite, fails the Frobenius coincidence suite."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}
    return _algebra_gadget("W", ["1", "x"], mult, 0)


def _quad_mult(flip: bool) -> dict:
    mult: dict = {(0, k): {k: 1} for k in range(4)}
    mult.update({(k, 0): {k: 1} for k in range(1, 4)})
    mult[(1, 2)] = {3: -1j if flip else 1j}   # x*y
    mult[(2, 1)] = {3: -1j}                   # y*x
    # products of x, y, z not listed in the presentation vanish (x^2 =
    # y^2 = z^2 = 0, xz = zx = 0) and yz, zy are taken to be 0 as well,
    # consistent with assigning x, y degree 1 and z degree 2.
    for pair in [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1), (2, 3), (3, 2)]:
        mult[pair] = {}
    return mult


def quad4() -> Gadget:
    """C<x,y,z> with x^2=y^2=z^2=0, xy=iz, yx=-iz, xz=zx=yz=zy=0:
    non-commutative, passes the dagger linear monoid suite, fails the
    Frobenius coincidence suite."""
    return _algebra_gadget("Q", ["1", "x", "y", "z"], _quad_mult(False), 0)


def quad4_flip() -> Gadget:
    """The xy=-iz variant of quad4: still a linear monoid, but the
    dagger linear monoid suite fails (comult-is-mult-dagger)."""
    return _algebra_gadget("Qf", ["1", "x", "y", "z"], _quad_mult(True), 0)


def qubit_zx() -> Gadget:
    """Self-linear bialgebra on the qubit: parity (XOR) monoid with the
    computational-basis copy/delete comonoid and canonical-basis duals.
    Passes the complementary and Hopf suites; the coincidence
    isomorphism is the identity.  It is `cyclic_group(2)` on the atom Q."""
    Q = Atom("Q")
    return Gadget("linear_bialgebra", {"A": Q, "B": Q},
                  cyclic_group(2).morphisms, ModelEnv.make({"Q": 2}))


def cyclic_group(n: int) -> Gadget:
    """Group algebra of Z_n with the copy/delete comonoid and canonical-basis
    duals: qubit-zx generalised from n = 2.  The Fourier transform on Z_n
    exchanges the two structures (Coecke & Duncan, "Interacting quantum
    observables", 2011)."""
    check_entries(f"zn:{n} multiplication", n ** 3)
    m = np.zeros((n, n * n))
    d = np.zeros((n * n, n))
    for i in range(n):
        d[i * n + i, i] = 1
        for j in range(n):
            m[(i + j) % n, i * n + j] = 1
    u = np.zeros((n, 1))
    u[0, 0] = 1
    cup = np.eye(n).reshape(n * n, 1)
    morphs = {"m": m, "u": u, "d": d, "k": np.ones((1, n)),
              "alpha": np.eye(n)}
    for r in ("eta_L", "eta_R", "tau_L", "tau_R"):
        morphs[r] = cup
    for r in ("eps_L", "eps_R", "gam_L", "gam_R"):
        morphs[r] = cup.T
    atom = Atom(f"Z{n}")
    return Gadget("linear_bialgebra", {"A": atom, "B": atom}, morphs,
                  ModelEnv.make({atom.name: n}))


def _cyclic_order(name: str) -> int:
    """The n of a `zn:<n>` gadget name: an integer of at least 2."""
    text = name[len("zn:"):]
    try:
        n = int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:   # past Python's limit on digits
        n = 0
    if n < 2:
        raise SchemaError(
            f"zn:<n> needs an integer n >= 2, got {text[:20]!r}")
    return n


BUILTIN = {
    "weil": weil,
    "quad4": quad4,
    "quad4-flip": quad4_flip,
    "qubit-zx": qubit_zx,
}


def fixture_names() -> list[str]:
    """The names of the built-in gadgets.  The `zn:<n>` family is built
    for any n and is not listed."""
    return sorted(BUILTIN)


def load_gadget(name_or_path: str) -> Gadget:
    """Load a gadget by built-in name, as `zn:<n>` for the Z_n group
    algebra, or from a JSON file path.  A document over an exponential
    states its degree bound (`gadget_from_json`)."""
    if name_or_path.startswith("zn:"):
        return cyclic_group(_cyclic_order(name_or_path))
    if name_or_path in BUILTIN:
        return BUILTIN[name_or_path]()
    path = Path(name_or_path)
    if not path.exists():
        raise SchemaError(f"no such gadget or fixture: {name_or_path}")
    return _read_document(path.read_bytes(), gadget_from_json, SchemaError,
                          "gadget document")
