"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Builds every workload at its tiny size, runs each operation once and
requires its check to pass.  Then feeds the checks planted wrong answers
(a flipped verdict, a wrong exit code, a perturbed matrix entry, a redex
left in a normal form, ...) and requires each to be caught.  Last, runs
every workload end to end in tiny mode, untraced and traced, and runs the
benchmark in a directory that holds no program, where it must fail without
printing a result.  Takes about a minute.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ["OPENBLAS_NUM_THREADS"] = "1"


import workloads  # noqa: E402

WORK = HERE / "_work" / "selftest"


def flip(text: str, old: str, new: str) -> str:
    lines = text.strip().splitlines()
    assert lines[-1] == old, lines[-1]
    return "\n".join(lines[:-1] + [new]) + "\n"


def plants(wl, op, out):
    """Wrong answers for one operation: (what, planted output, file to
    write first or None)."""
    kind = op.kind
    if kind == "validate":
        rc, text = out
        verdict = text.strip().splitlines()[-1]
        other = "invalid" if verdict == "valid" else "valid"
        yield "wrong exit code", (2 - rc, text), None
        yield "flipped verdict", (rc, flip(text, verdict, other)), None
    elif kind == "normalize":
        source, target = wl.normalized[op.label]
        good = target.read_bytes()
        yield "exit code 1", 1, None
        if source.name.startswith("expanded"):
            yield "redexes left", 0, source.read_bytes()
            doc = json.loads(good)
            doc["nodes"] = doc["nodes"][1:]
            yield "a node dropped", 0, json.dumps(doc).encode()
            doc = json.loads(good)
            if len(doc["outputs"]) >= 2:
                doc["outputs"] = doc["outputs"][::-1]
                yield "outputs permuted", 0, json.dumps(doc).encode()
        if source.name.startswith("invalid"):
            valid = wl.workdir / "valid-00.json"
            yield "verdict changed", 0, valid.read_bytes()
    elif kind == "check":
        rc, text = out
        verdict = text.strip().splitlines()[-1]
        yield "exit code 1", (1, text), None
        if "rotated" in op.label or "/Z" in op.label or \
                tuple(op.label.split("/", 1)) in workloads.DOCUMENTED:
            other, orc = ("fail", 2) if verdict == "pass" else ("pass", 0)
            yield "flipped verdict", (orc, flip(text, verdict, other)), None
        if rc == 0:
            yield "residual above tol", (0, "bad: 1.000e-03\n" + text), None
    elif kind == "evaluate":
        bad = out.copy()
        bad[0, 0] += 1e-3
        yield "perturbed entry", bad, None
    elif kind == "demo":
        rc, text = out
        yield "exit code 2", (2, text), None
        yield "recovery error", (rc, text.replace(
            "recovery error", "recovery error 1.000e-03 was")), None
    elif kind == "bang":
        if op.label.startswith(("f", "hf")):
            bad = out.copy()
            bad[1, 1] += 1e-3
            yield "perturbed entry", bad, None
    elif kind == "monoidal":
        m_top, m_tensor, nu = out
        bad = m_tensor.copy()
        bad[1, 0] += 1e-3
        yield "perturbed lift", (m_top, bad, bad.conj().T), None
    elif kind == "coassoc":
        yield "failed report", (False, out[1], out[2]), None
        yield "nothing compared", (True, 0.0, 0), None


def test_checks() -> int:
    caught = 0
    for name, cls in workloads.WORKLOADS.items():
        workdir = WORK / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        wl = cls(0, True, workdir, ROOT)
        wl.build()
        outputs = []
        for op in wl.ops:
            out = op.run()
            fault = op.check(out)
            assert fault is None, f"{name} {op.label}: {fault}"
            outputs.append(out)
        for op, out in zip(wl.ops, outputs):
            target = None
            if op.kind == "normalize":
                target = wl.normalized[op.label][1]
                good = target.read_bytes()
            for what, bad, content in plants(wl, op, out):
                if content is not None:
                    target.write_bytes(content)
                fault = op.check(bad)
                assert fault is not None, \
                    f"{name} {op.label}: planted {what} was not caught"
                caught += 1
                if target is not None:
                    target.write_bytes(good)
                # checks keep state across operations; restore it
                assert op.check(out) is None, f"{name} {op.label}"
        print(f"selftest: {name}: {len(wl.ops)} operations correct")
    return caught


def run_bench(cwd: Path, *args) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run_bench(ROOT, "--workload", w["name"], "--seed",
                                  "0", "--seconds", "1", "--trace",
                                  str(trace), "--tiny")
            result = json.loads(lines[-1])
            assert rc == 0 and result["correct"] and result["failed"] == 0 \
                and result["attempted"] >= 1, (w["name"], trace, result)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
        print(f"selftest: {w['name']}: tiny runs correct, traced and not")


def test_without_program() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = run_bench(bare, "--workload", "check", "--seed", "0",
                          "--seconds", "1", "--trace", "0")
    assert rc != 0 and not any(x.startswith("{") for x in lines), (rc, lines)
    shutil.rmtree(bare)
    print("selftest: without the program the benchmark fails, no result")


def main() -> int:
    caught = test_checks()
    print(f"selftest: {caught} planted wrong answers caught")
    test_tiny_runs()
    test_without_program()
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
