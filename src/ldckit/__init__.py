"""Executable toolkit for two-tensor circuit validity, rewriting, and
numerical verification of duals, linear (co)monoids, bialgebras,
complementary systems, and truncated free exponentials in the
finite-dimensional complex matrix model."""

from .objects import (Atom, Bang, Bot, Dagger, ObjectExpr, Par, Quest,
                      Tensor, Top, BOT, TOP, dagger_of)
from .circuit import (Circuit, Node, compose, dagger_box, generator,
                      identity, isomorphic, permutation, seq, par, swap,
                      tensor_parallel)
from .io import matrix_from_json, matrix_to_json, parse, serialize
from .render import render_dot
from .validity import BoxState, ValidityReport, validate
from .rewrite import expand_wire, normalize
from .model import (ModelEnv, evaluate, interp, matrices_equal,
                    split_idempotent)
from .gadget import Gadget, gadget_from_json, gadget_to_json
from .suites import SUITES, EquationSuite, SuiteReport, check_suite
from .structures import (complementary_from_idempotent,
                         split_binary_idempotent, split_linear_comonoid,
                         split_linear_monoid)
from .exponential import (ExpStructure, bang_matrix, build_exp,
                          comonad_coassoc_report, comonoid_residual,
                          induce_bang_monoid, lift_flat, lift_sharp,
                          monoidal_structure, retract_idempotent)
from .multiset import MultisetBasis
from .fixtures import fixture_names, load_gadget
from .errors import (CircuitSyntaxError, IllTyped, LiftFailure, MissingRole,
                     NotAComonoid, NotExpandable, NotIdempotent,
                     ResourceLimit, SchemaError, ShapeMismatch, SuiteFailure,
                     TypeMismatch, UnassignedGenerator, UnboundAtom)

__all__ = [name for name in dir() if not name.startswith("_")]
