"""The suites against the residual snapshot in tests/data/suite_residuals.json
(written by scripts/snapshot_suite_residuals.py): for every recorded
(suite, gadget) pair, the same labels in the same order, the same verdict
and the same residuals, in the report and in `ldckit check` output."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from ldckit.cli import main
from ldckit.gadget import gadget_to_json
from ldckit.suites import SUITES, check_suite

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "snapshot_suite_residuals",
    ROOT / "scripts" / "snapshot_suite_residuals.py")
snap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snap)

RECORDS = json.loads(snap.SNAPSHOT.read_text())
# A refactor may reorder floating-point work, nothing more.
REL = 1e-12


@pytest.fixture(scope="module")
def gadgets():
    return snap.gadgets()


def test_snapshot_covers_every_suite_and_gadget(gadgets):
    assert {r["suite"] for r in RECORDS} == set(SUITES)
    pairs = [(r["gadget"], r["suite"]) for r in RECORDS]
    assert pairs == [(name, s) for name, (_, suites) in gadgets.items()
                     for s in suites]


@pytest.mark.parametrize("gname", sorted({r["gadget"] for r in RECORDS}))
def test_reports_match_snapshot(gname, gadgets, tmp_path, capsys):
    g, _ = gadgets[gname]
    path = tmp_path / "gadget.json"
    path.write_text(json.dumps(gadget_to_json(g)))
    for rec in (r for r in RECORDS if r["gadget"] == gname):
        where = (rec["suite"], gname)
        doc = check_suite(g, SUITES[rec["suite"]], rec["tol"]).to_json()
        labels = [e["label"] for e in rec["equations"]]
        assert [e["label"] for e in doc["equations"]] == labels, where
        assert doc["pass"] == rec["pass"], where
        for old, new in zip(rec["equations"], doc["equations"]):
            assert abs(new["residual"] - old["residual"]) \
                <= REL * max(1.0, abs(old["residual"])), (where, old, new)

        rc = main(["check", "--suite", rec["suite"], "--gadget", str(path),
                   "--tol", repr(rec["tol"])])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == labels, where
        assert lines[-1] == ("pass" if rec["pass"] else "fail"), where
        assert rc == (0 if rec["pass"] else 2), where
