#!/usr/bin/env python3
"""Record the residual report of every applicable (suite, gadget) pair in
tests/data/suite_residuals.json, so that a refactor of the suites can be
checked against it: the same labels in the same order, the same verdict and
the same residuals.

The gadgets are the built-in ones, the compact reflections of the three
algebra examples, the bialgebra that qubit-zx induces on its degree-2
exponential (bare, and with the binary idempotent of the retract),
seeded random gadgets that hold every role of every suite, and the same
three for the Z_3 group algebra `zn:3`.  On the random
gadgets every equation has a residual of order one, so a changed template
shows.

    PYTHONPATH=src python scripts/snapshot_suite_residuals.py [OUT]

writes the report to OUT, by default the committed file.

The committed file is not reproduced byte for byte on every host.  Written
on another host, 40 residuals can differ from it in the last digit (for
example a `dagger-cap` residual of 8.916208344510858 against
8.91620834451086).  `tests/test_suite_snapshot.py` compares residuals at a
relative tolerance (`REL`) that admits such digits.  So a byte-for-byte
check of a refactor must compare this script's output on the parent
commit, regenerated on the same host, with its output on the change; it
cannot compare either with the committed file.  With the parent's tree in
../parent (from `git archive`, say), run this script from the change on
both sources, then `cmp parent.json change.json`:

    PYTHONPATH=../parent/src python scripts/snapshot_suite_residuals.py \
        parent.json
    PYTHONPATH=src python scripts/snapshot_suite_residuals.py change.json
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from ldckit.errors import TypeMismatch
from ldckit.exponential import induce_bang_monoid, retract_idempotent
from ldckit.fixtures import fixture_names, load_gadget
from ldckit.gadget import Gadget
from ldckit.model import ModelEnv, interp
from ldckit.objects import Atom
from ldckit.structures import compact_reflection
from ldckit.suites import SUITES, check_suite

TOL = 1e-9
SEEDS = (0, 1)
# The exponential gadgets stay at degree 2, where they build in milliseconds.
EXP_DEGREE = 2
SNAPSHOT = (Path(__file__).resolve().parent.parent
            / "tests" / "data" / "suite_residuals.json")

# Object roles of the random gadgets.  A and B are distinct atoms of one
# dimension where the suite's templates allow it (the antipodes need B = A),
# since several suites compare maps on A with maps on B.
_OBJECT_DIMS = {"A": ("a", 2), "B": ("b", 2), "A2": ("a2", 3),
                "B2": ("b2", 3), "C": ("c", 2), "D": ("d", 3),
                "X": ("x", 2), "Y": ("y", 3), "Z": ("z", 2)}


def _random_base(shared: bool) -> Gadget:
    env = ModelEnv.make({atom: dim for atom, dim in _OBJECT_DIMS.values()})
    objects = {role: Atom(atom) for role, (atom, _) in _OBJECT_DIMS.items()}
    if shared:
        objects["B"] = objects["A"]
    return Gadget("random", objects, {}, env)


def _role_shapes(suite, base: Gadget) -> dict[str, tuple[int, int]]:
    """Matrix shape of every role of the suite that its templates use,
    directly or through a derived generator."""
    shapes: dict[str, tuple[int, int]] = {}
    for eq in suite.equations:
        for c in eq.build(base):
            for node in c.nodes.values():
                if node.kind != "gen":
                    continue
                rows = int(np.prod([interp(t, base.env)[0]
                                    for t in node.cod]))
                cols = int(np.prod([interp(t, base.env)[0]
                                    for t in node.dom]))
                role, _, suffix = node.name.rpartition("_")
                if node.name in suite.roles:
                    shapes[node.name] = (rows, cols)
                elif role in suite.roles and suffix == "dag":
                    shapes[role] = (cols, rows)
                elif role in suite.roles and suffix == "inv":
                    shapes[role] = (rows, cols)
    return shapes


def _suite_shapes(suite) -> tuple[bool, dict[str, tuple[int, int]]]:
    try:
        return False, _role_shapes(suite, _random_base(False))
    except TypeMismatch:
        return True, _role_shapes(suite, _random_base(True))


def random_gadgets() -> dict[str, tuple[Gadget, list[str]]]:
    """Seeded random gadgets that together hold every role of every suite,
    each with the suites whose role shapes it fits.  Suites go, in registry
    order, into the first group whose role shapes they agree with; each
    group becomes one gadget per seed."""
    need = {name: _suite_shapes(s) for name, s in SUITES.items()}
    groups: list[tuple[bool, dict[str, tuple[int, int]]]] = []
    for name, (shared, shapes) in need.items():
        for group_shared, group in groups:
            if group_shared == shared and all(
                    group.get(r, s) == s for r, s in shapes.items()):
                break
        else:
            group = {}
            groups.append((shared, group))
        group.update(shapes)
        # A role the templates never use takes its shape from the first
        # suite that uses it.
        for role in SUITES[name].roles:
            if role not in group:
                group[role] = next(s[role] for _, s in need.values()
                                   if role in s)
    out = {}
    for i, (shared, group) in enumerate(groups):
        base = _random_base(shared)
        fits = [name for name, (s_shared, shapes) in need.items()
                if s_shared == shared
                and set(SUITES[name].roles) <= set(group)
                and all(group[r] == s for r, s in shapes.items())]
        for seed in SEEDS:
            rng = np.random.default_rng([seed, i])
            morphs = {role: rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape)
                      for role, shape in sorted(group.items())}
            out[f"random-{i}-seed{seed}"] = (
                Gadget("random", dict(base.objects), morphs, base.env), fits)
    return out


def gadgets() -> dict[str, tuple[Gadget, list[str]]]:
    """Every snapshot gadget with the suites it is checked against."""
    out = {}
    for name in fixture_names():
        out[name] = load_gadget(name)
    for name in ("weil", "quad4", "quad4-flip"):
        out[f"reflected-{name}"] = compact_reflection(load_gadget(name))
    qubit = load_gadget("qubit-zx")
    out["induced-qubit-zx"] = induce_bang_monoid(qubit, EXP_DEGREE)
    out["retract-qubit-zx"] = retract_idempotent(qubit, EXP_DEGREE)["gadget"]
    out = {name: (g, [s.name for s in SUITES.values() if g.has(*s.roles)])
           for name, g in out.items()}
    out.update(random_gadgets())
    out.update(cyclic_gadgets())
    return out


def cyclic_gadgets() -> dict[str, tuple[Gadget, list[str]]]:
    """The Z_3 group algebra on the suites of a complementary pair, and the
    bialgebra it induces on its degree-2 exponential, bare and with the
    retract's idempotent, on the suites of their qubit-zx counterparts.
    They come last, so that the records before them stay as they were."""
    zn3 = load_gadget("zn:3")
    out = {"zn:3": (zn3, ["linear-bialgebra", "complementary", "hopf"])}
    for name, g in (("induced-zn:3", induce_bang_monoid(zn3, EXP_DEGREE)),
                    ("retract-zn:3",
                     retract_idempotent(zn3, EXP_DEGREE)["gadget"])):
        out[name] = (g, [s.name for s in SUITES.values()
                         if g.has(*s.roles)])
    return out


def snapshot() -> list[dict]:
    return [{"gadget": gname,
             **check_suite(g, SUITES[suite], TOL).to_json()}
            for gname, (g, suites) in gadgets().items() for suite in suites]


def main(argv: list[str]) -> None:
    if len(argv) > 1:
        sys.exit(f"usage: {Path(__file__).name} [OUT]")
    out = Path(argv[0]) if argv else SNAPSHOT
    records = snapshot()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} (suite, gadget) reports to {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
