"""Run the boxing procedure over the bundled circuit corpus and show how
each verdict is reached: the trace of box introductions, absorptions, and
merges, or the stuck configuration for invalid circuits."""
from __future__ import annotations

from pathlib import Path

from ldckit import parse, validate

CORPUS = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    for path in sorted(CORPUS.glob("*.json")):
        circuit = parse(path.read_bytes())
        report = validate(circuit)
        verdict = "valid" if report.valid else "invalid"
        rules = [step["rule"] for step in report.trace]
        print(f"{path.stem:28s} {verdict:8s} trace: {' '.join(rules)}")
        if not report.valid:
            stuck = report.stuck
            print(f"{'':28s} stuck with {len(stuck['boxes'])} boxes, "
                  f"{len(stuck['unabsorbed'])} unabsorbed nodes")


if __name__ == "__main__":
    main()
