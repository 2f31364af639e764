"""Object formulas: atoms, units, the two tensors, dagger, and the exponentials."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import LdcError, SchemaError


class ObjectExpr:
    """Base class for object formulas. Instances are immutable and compare
    structurally (syntactic equality)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return pretty(self)


@dataclass(frozen=True, repr=False)
class Atom(ObjectExpr):
    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise LdcError(f"bad atom name: {self.name!r}")


@dataclass(frozen=True, repr=False)
class Top(ObjectExpr):
    pass


@dataclass(frozen=True, repr=False)
class Bot(ObjectExpr):
    pass


@dataclass(frozen=True, repr=False)
class Tensor(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


@dataclass(frozen=True, repr=False)
class Par(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr


@dataclass(frozen=True, repr=False)
class Dagger(ObjectExpr):
    inner: ObjectExpr


@dataclass(frozen=True, repr=False)
class Bang(ObjectExpr):
    inner: ObjectExpr


@dataclass(frozen=True, repr=False)
class Quest(ObjectExpr):
    inner: ObjectExpr


TOP = Top()
BOT = Bot()


def dagger_of(t: ObjectExpr) -> ObjectExpr:
    """Dagger image of a formula, cancelling a double dagger syntactically."""
    if isinstance(t, Dagger):
        return t.inner
    return Dagger(t)


def factors(t: ObjectExpr) -> tuple[ObjectExpr, ...]:
    """The formulas whose Kronecker product `t` is, left to right: the atoms
    and exponentials under its tensors, pars and daggers.  Units contribute
    none, so a unit is the empty product."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, (Tensor, Par)):
            stack += (t.right, t.left)
        elif isinstance(t, Dagger):
            stack.append(t.inner)
        elif not isinstance(t, (Top, Bot)):
            out.append(t)
    return tuple(out)


def pretty(t: ObjectExpr) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Top):
        return "T"
    if isinstance(t, Bot):
        return "_|_"
    if isinstance(t, Tensor):
        return f"({pretty(t.left)} * {pretty(t.right)})"
    if isinstance(t, Par):
        return f"({pretty(t.left)} + {pretty(t.right)})"
    if isinstance(t, Dagger):
        return f"{pretty(t.inner)}^"
    if isinstance(t, Bang):
        return f"!{pretty(t.inner)}"
    if isinstance(t, Quest):
        return f"?{pretty(t.inner)}"
    raise TypeError(f"not an object formula: {t!r}")


def type_to_json(t: ObjectExpr) -> object:
    if isinstance(t, Atom):
        return {"atom": t.name}
    if isinstance(t, Top):
        return {"top": {}}
    if isinstance(t, Bot):
        return {"bot": {}}
    if isinstance(t, Tensor):
        return {"tensor": [type_to_json(t.left), type_to_json(t.right)]}
    if isinstance(t, Par):
        return {"par": [type_to_json(t.left), type_to_json(t.right)]}
    if isinstance(t, Dagger):
        return {"dagger": type_to_json(t.inner)}
    if isinstance(t, Bang):
        return {"bang": type_to_json(t.inner)}
    if isinstance(t, Quest):
        return {"quest": type_to_json(t.inner)}
    raise TypeError(f"not an object formula: {t!r}")


def type_from_json(data: object) -> ObjectExpr:
    if not isinstance(data, dict) or len(data) != 1:
        raise SchemaError(f"bad type expression: {data!r}")
    key, val = next(iter(data.items()))
    if key == "atom":
        if not isinstance(val, str) or not val:
            raise SchemaError(f"bad atom name: {val!r}")
        return Atom(val)
    if key == "top":
        return TOP
    if key == "bot":
        return BOT
    if key in ("tensor", "par"):
        if not isinstance(val, list) or len(val) != 2:
            raise SchemaError(f"{key} takes two arguments: {val!r}")
        cls = Tensor if key == "tensor" else Par
        return cls(type_from_json(val[0]), type_from_json(val[1]))
    if key == "dagger":
        return Dagger(type_from_json(val))
    if key == "bang":
        return Bang(type_from_json(val))
    if key == "quest":
        return Quest(type_from_json(val))
    raise SchemaError(f"unknown type constructor: {key!r}")
