"""The append-only audit ledger: one JSONL file per audit stream.

Every audited response becomes one ``repro/audit-v1`` line under
``<root>/<scenario>.jsonl`` — the durable record ``repro audit-report``
summarizes.  The write discipline is the benchmark ledger's (the shared
:mod:`repro.jsonlio` primitives): each record is serialized to a
single line and written with one ``O_APPEND`` ``write(2)`` + fsync, so
concurrent audit workers interleave whole lines, never halves, and a
crash leaves either the full new line or nothing.  Lines are
schema-validated on both write and read
(:mod:`repro.auditor.schema`), so a corrupt line is caught with its
file and line number.

``$REPRO_AUDIT_DIR`` overrides where :meth:`AuditLedger.default`
looks; an *empty* value disables default-ledger discovery entirely
(tier-1 test isolation — see ``tests/conftest.py``).  There is no
committed default location: audits are operational telemetry, not a
repo artifact, so callers outside ``$REPRO_AUDIT_DIR`` must name a
directory explicitly (``repro serve --audit-ledger DIR``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional

from repro import jsonlio
from repro.auditor.schema import validate_audit_record

#: Environment variable naming the default audit-ledger directory.
#: Set to the empty string to disable default-ledger discovery.
AUDIT_DIR_ENV = "REPRO_AUDIT_DIR"


class AuditLedgerError(jsonlio.JsonlError):
    """An audit ledger file that cannot be read (corrupt line, bad schema)."""


def _stream_filename(scenario: str) -> str:
    return jsonlio.safe_filename(scenario)


class AuditLedger:
    """Append and read ``repro/audit-v1`` records in one directory."""

    def __init__(self, root: str):
        self.root = str(root)

    @classmethod
    def default(cls) -> Optional["AuditLedger"]:
        """The ``$REPRO_AUDIT_DIR`` ledger, or ``None``.

        An empty value explicitly disables audit recording (records then
        live only in the worker's in-memory buffer).
        """
        if AUDIT_DIR_ENV in os.environ:
            value = os.environ[AUDIT_DIR_ENV]
            return cls(value) if value else None
        return None

    # -- paths -----------------------------------------------------------

    def path_for(self, scenario: str) -> str:
        return os.path.join(self.root, _stream_filename(scenario))

    def scenarios(self) -> List[str]:
        """Audit streams present, from the ``*.jsonl`` files on disk."""
        return jsonlio.list_streams(self.root)

    # -- reading ---------------------------------------------------------

    def records(self, scenario: str) -> List[Dict[str, object]]:
        """All validated records of one stream, in append order."""
        return jsonlio.read_jsonl(
            self.path_for(scenario),
            validate=validate_audit_record,
            error_cls=AuditLedgerError,
        )

    def all_records(self) -> List[Dict[str, object]]:
        records: List[Dict[str, object]] = []
        for scenario in self.scenarios():
            records.extend(self.records(scenario))
        return records

    # -- writing ---------------------------------------------------------

    def append(self, record: Mapping[str, object]) -> Dict[str, object]:
        """Validate and atomically append one record; returns it."""
        validate_audit_record(record)
        entry = dict(record)
        jsonlio.append_jsonl(self.path_for(str(entry["scenario"])), entry)
        return entry


__all__ = ["AUDIT_DIR_ENV", "AuditLedger", "AuditLedgerError"]
