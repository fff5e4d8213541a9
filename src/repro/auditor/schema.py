"""Validation for ``repro/audit-v1`` records — one audited response each.

The audit ledger is append-only JSONL (see
:mod:`repro.auditor.ledger`), so a malformed line written today is a
broken ``repro audit-report`` next month.  Exactly like the benchmark
ledger (:mod:`repro.benchledger.schema`), every record passes through
this module on *both* write and read, declared over the shared kernel
(:mod:`repro.schema`) with JSON-pointer-ish error paths
(``properties.SP``).

One ``repro/audit-v1`` record::

    {"schema": "repro/audit-v1",
     "created_unix": 1722300000.0,
     "scenario": "steady",               # audit stream label
     "scheduler": "oef-coop",            # canonical registry name
     "fingerprint": "9f3a…",             # audited instance content hash
     "seed": 0,                          # SP-audit seed
     "verdict": "pass" | "fail" | "error",
     "properties": {"PE": "yes", "EF": "yes", "SI": "yes",
                    "SP": "no", "optimal efficiency": "yes"},
     "violations": ["EF"],               # failed *expected* properties
     "elapsed_s": 0.012,
     "error": "..."}                     # required iff verdict == "error"
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Tuple

from repro.schema import (
    Schema,
    SchemaError,
    integer,
    list_of,
    nullable,
    number,
    one_of,
    tag,
    text,
)

AUDIT_SCHEMA = "repro/audit-v1"

#: The Table-1 property marks every record carries, in report order
#: (matches :meth:`repro.core.properties.PropertyReport.as_row`).
PROPERTY_KEYS = ("PE", "EF", "SI", "SP", "optimal efficiency")

#: Allowed per-property marks; "n/a" covers checks that did not run
#: (e.g. SP audits disabled for a scheduler).
PROPERTY_MARKS = ("yes", "no", "n/a")

VERDICTS = ("pass", "fail", "error")


class AuditSchemaError(SchemaError, ValueError):
    """A record that does not conform to ``repro/audit-v1``."""


def _verdict_rules(record: Mapping[str, Any]) -> Optional[Tuple[str, str]]:
    verdict = record["verdict"]
    if verdict == "fail" and not record["violations"]:
        return (
            "violations",
            "a 'fail' verdict must name at least one violated property",
        )
    has_error = record.get("error") is not None
    if verdict == "error" and not has_error:
        return ("error", "an 'error' verdict must carry an error message")
    if verdict != "error" and has_error:
        return (
            "error",
            f"only 'error' verdicts carry an error message, got "
            f"{record['error']!r}",
        )
    return None


AUDIT_RECORD = Schema(
    {
        "schema": tag(AUDIT_SCHEMA),
        "created_unix": number(),
        "scenario": text(),
        "scheduler": text(),
        "fingerprint": text(),
        "seed": integer(),
        "verdict": one_of(VERDICTS),
        "properties": Schema(
            {key: one_of(PROPERTY_MARKS) for key in PROPERTY_KEYS},
            closed=True,
        ),
        # built-in property keys or user-registered custom check names
        "violations": list_of(text()),
        "elapsed_s": number(ge=0),
        "error": nullable(text()),
    },
    optional=("error",),
    hook=_verdict_rules,
    error=AuditSchemaError,
)

#: One ``repro/audit-v1`` record; returns it unchanged.
validate_audit_record = AUDIT_RECORD.validate


__all__ = [
    "AUDIT_SCHEMA",
    "PROPERTY_KEYS",
    "PROPERTY_MARKS",
    "VERDICTS",
    "AuditSchemaError",
    "validate_audit_record",
]
