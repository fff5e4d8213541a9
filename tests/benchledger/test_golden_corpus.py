"""The committed benchmark ledger validates under the current schema."""

import os
import warnings

from repro.benchledger import BenchLedger, validate_entry

LEDGER_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "ledger"
)


def _snapshot(root):
    return {
        name: os.path.getsize(os.path.join(root, name))
        for name in sorted(os.listdir(root))
    }


def _count_lines(path):
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def test_every_committed_entry_validates():
    before = _snapshot(LEDGER_DIR)
    ledger = BenchLedger(LEDGER_DIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a torn tail must not hide here
        entries = list(ledger.all_entries())
    for entry in entries:
        assert validate_entry(entry) is entry
    lines = sum(
        _count_lines(ledger.path_for(family)) for family in ledger.families()
    )
    assert entries and len(entries) == lines
    assert _snapshot(LEDGER_DIR) == before  # read-only: nothing appended
