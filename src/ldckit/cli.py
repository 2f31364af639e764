"""Command-line front end: validate, normalize, render, check, split,
exp demo, examples.  Exit codes: 0 success/pass, 2 semantic failure,
1 usage/parse error."""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import LdcError, SuiteFailure, count, shaped, tolerance
from .exponential import induction_degree, retract_idempotent
from .fixtures import fixture_names, load_gadget
from .gadget import gadget_to_json
from .io import parse, serialize
from .model import matrices_equal
from .render import render_dot
from .rewrite import normalize
from .structures import (complementary_from_idempotent,
                         split_binary_idempotent, split_linear_bialgebra,
                         split_linear_comonoid, split_linear_monoid)
from .suites import SUITES, check_suite
from .validity import validate


def _emit(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


def _write_report(report, path: str | None) -> None:
    if path:
        Path(path).write_text(json.dumps(report.to_json(), indent=1) + "\n")


def cmd_validate(args) -> int:
    circuit = parse(Path(args.path).read_bytes())
    rep = validate(circuit)
    if args.trace:
        for step in rep.trace:
            print(json.dumps(step))
    print("valid" if rep.valid else "invalid")
    if not rep.valid and rep.stuck is not None and args.trace:
        print(json.dumps({"stuck": rep.stuck}))
    return 0 if rep.valid else 2


def cmd_normalize(args) -> int:
    circuit = parse(Path(args.path).read_bytes())
    _emit(serialize(normalize(circuit)), args.output)
    return 0


def cmd_render(args) -> int:
    circuit = parse(Path(args.path).read_bytes())
    _emit(render_dot(circuit), args.output)
    return 0


def cmd_check(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; available: "
              f"{', '.join(sorted(SUITES))}", file=sys.stderr)
        return 1
    gadget = load_gadget(args.gadget)
    report = check_suite(gadget, SUITES[args.suite], tol=args.tol)
    _write_report(report, args.report)
    for label, residual in report.residuals.items():
        print(f"{label}: {residual:.3e}")
    print("pass" if report.passed else "fail")
    return 0 if report.passed else 2


_SPLITTERS = {
    "monoid": split_linear_monoid,
    "comonoid": split_linear_comonoid,
    "bialgebra": split_linear_bialgebra,
}


def cmd_split(args) -> int:
    gadget = load_gadget(args.gadget)
    if args.kind == "binary":
        result = split_binary_idempotent(gadget, tol=args.tol)
        alpha, beta = result["alpha"], result["beta"]
        res = max(matrices_equal(alpha @ beta, np.eye(len(alpha)))[1],
                  matrices_equal(beta @ alpha, np.eye(len(beta)))[1])
        print(f"rank {alpha.shape[0]}, iso residual {res:.3e}")
        return 0 if res <= args.tol * 10 else 2
    ub = gadget.morphism("ub")
    vb = shaped(gadget.morphism("vb"), ub.shape[::-1],
                f"ub {ub.shape} and vb {{shape}} do not compose both ways")
    split = _SPLITTERS[args.kind](gadget, vb @ ub, ub @ vb, args.tol)
    _emit(json.dumps(gadget_to_json(split), indent=1).encode() + b"\n",
          args.output)
    return 0


def cmd_exp_demo(args) -> int:
    gadget = load_gadget(args.gadget)
    induction_degree(gadget, args.degree)   # refused before any check
    comp = check_suite(gadget, SUITES["complementary"], tol=args.tol)
    print(f"complementary (input): worst residual {comp.worst():.3e}")
    if not comp.passed:
        print("input is not a complementary system", file=sys.stderr)
        return 2

    result = retract_idempotent(gadget, degree=args.degree, tol=args.tol)
    induced = result["gadget"]
    eps, flat, sharp, eta = result["splitting"]
    dim = flat.shape[1]
    r1 = matrices_equal(eps @ flat, np.eye(dim))[1]
    e_bang = result["e_bang"]
    r2 = matrices_equal(e_bang @ e_bang, e_bang)[1]
    print(f"retraction: flat;eps deviation {r1:.3e}, "
          f"idempotency deviation {r2:.3e}")

    out = complementary_from_idempotent(induced, tol=args.tol,
                                        splitting=result["splitting"])
    cond, verdict = out["conditions"], out["complementary"]
    print(f"idempotent conditions: worst residual {cond.worst():.3e}")
    print(f"split complementary: worst residual {verdict.worst():.3e}")
    if not (cond.passed and verdict.passed):
        return 2

    recovered = out["split"]
    err = max(matrices_equal(recovered.morphism(role),
                             gadget.morphism(role))[1]
              for role in recovered.morphisms if role in gadget.morphisms)
    print(f"recovery error {err:.3e}")
    return 0 if err <= args.tol * 10 else 2


def cmd_examples(args) -> int:
    for name in fixture_names():
        print(name)
    return 0


def _argument(name: str, read: Callable[[str], object], rule: Callable,
              *args) -> Callable[[str], object]:
    """The argparse type `name`: the text `read` as a value and judged by
    one rule of `errors`, whose refusal is a usage error."""
    def parse(text: str):
        return rule(read(text), *args, error=argparse.ArgumentTypeError)
    parse.__name__ = name   # argparse names it in "invalid <name> value"
    return parse


class _Typed(float):
    """A number read from the command line that shows as the text typed,
    so a refusal names what the user wrote ("got -1", not "got -1.0")."""
    def __new__(cls, text: str) -> "_Typed":
        number = super().__new__(cls, text)
        number.text = text
        return number

    def __repr__(self) -> str:
        return self.text


def _common(p: argparse.ArgumentParser) -> None:
    """--tol; a gadget states its own degree bound (`gadget_from_json`)."""
    # argparse shows the name in "invalid _tolerance value", kept stable
    p.add_argument("--tol", type=_argument("_tolerance", _Typed, tolerance),
                   default=1e-9)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    top = argparse.ArgumentParser(prog="ldckit")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check circuit correctness by boxing")
    p.add_argument("path")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("normalize", help="apply reduction rewrites")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("render", help="emit a DOT drawing")
    p.add_argument("path")
    p.add_argument("--format", default="dot", choices=("dot",))
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("check", help="run an equation suite on a gadget")
    p.add_argument("--suite", required=True)
    p.add_argument("--gadget", required=True)
    p.add_argument("--report")
    _common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("split", help="split an idempotent on a gadget")
    p.add_argument("--gadget", required=True)
    p.add_argument("--kind", default="binary",
                   choices=("bialgebra", "binary", "comonoid", "monoid"))
    p.add_argument("-o", "--output")
    _common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("exp", help="exponential-modality commands")
    esub = p.add_subparsers(dest="expcmd", required=True)
    pd = esub.add_parser("demo", help="lift, retract, and re-split a "
                                      "complementary system")
    pd.add_argument("--gadget", required=True)
    _common(pd)
    pd.add_argument("--degree", default=3,
                    help="degree bound of the exponential to build "
                         "(default 3)",
                    type=_argument("degree", int, count,
                                   "degree must be at least 1", 1))
    pd.set_defaults(func=cmd_exp_demo)

    p = sub.add_parser("examples", help="list built-in gadgets")
    p.set_defaults(func=cmd_examples)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is kept
        # for a failed check.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except SuiteFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LdcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # below errors.MAX_ENTRIES per array, but past the memory there is
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
