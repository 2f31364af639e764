"""The retract pipeline end to end: build the degree-truncated free
exponential of the qubit, lift the Z comonoid to an idempotent on the
exponential, split it, and confirm the split recovers the original
complementary system."""
from __future__ import annotations

import time

import numpy as np

from ldckit import (build_exp, comonad_coassoc_report,
                    complementary_from_idempotent, load_gadget,
                    matrices_equal, retract_idempotent)

DEGREE = 3


def main() -> None:
    t0 = time.perf_counter()
    exp = build_exp(2, DEGREE)
    print(f"!A at degree {DEGREE}: dim {exp.dim} (outer !!A: {exp.outer.dim})")
    ok, worst, checked = comonad_coassoc_report(2, DEGREE)
    print(f"comonad coassociativity on the degree window: "
          f"{'ok' if ok else 'FAIL'} (worst {worst:.1e}, "
          f"{checked} entries checked)")

    qubit = load_gadget("qubit-zx")
    result = retract_idempotent(qubit, degree=DEGREE)
    eps, flat, sharp, eta = result["splitting"]
    print(f"section splits the dereliction exactly: "
          f"{np.array_equal(eps @ flat, np.eye(2))}")
    e_bang = result["e_bang"]
    print(f"induced idempotent on !A is exactly idempotent: "
          f"{np.array_equal(e_bang @ e_bang, e_bang)}")

    out = complementary_from_idempotent(result["gadget"], tol=1e-8,
                                        splitting=result["splitting"])
    print(f"compatibility conditions: "
          f"{'pass' if out['conditions'].passed else 'FAIL'} "
          f"(worst {out['conditions'].worst():.1e})")
    print(f"split is complementary: "
          f"{'pass' if out['complementary'].passed else 'FAIL'}")
    recovered = out["split"]
    err = max(matrices_equal(recovered.morphism(r), qubit.morphism(r))[1]
              for r in recovered.morphisms if r in qubit.morphisms)
    print(f"recovery error vs the original qubit gadget: {err:.3e}")
    print(f"total time: {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
