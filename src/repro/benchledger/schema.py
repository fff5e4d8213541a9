"""Validation for ``repro/bench-v1`` records and ``repro/ledger-v1`` entries.

Benchmark records used to be written with ``json.dump`` and read back
with hope: a row missing its ``p50``, a stringly-typed ``mean``, or a
typo'd schema tag was silently accepted and only exploded much later,
inside a compare or a plot.  This module is the single chokepoint both
:mod:`repro.benchio` (on write) and :mod:`repro.benchledger.ledger`
(on write *and* read) route through, so a malformed record can never
enter the trajectory.

Both shapes are declarations over the shared kernel
(:mod:`repro.schema`), so errors carry a JSON-pointer-ish ``path``
(``rows[3].p95``) and the offending field is one glance away.

The two document shapes:

``repro/bench-v1`` (one benchmark record, see :mod:`repro.benchio`)::

    {"schema": "repro/bench-v1", "benchmark": "gateway",
     "created_unix": 1722300000.0,
     "run": {"git_sha": ..., "hostname": ..., "python": ...,
             "platform": ..., "created_iso": ...},
     "meta": {...},
     "rows": [{"name": "pipeline/hot", "mean": ..., "p50": ...,
               "p95": ..., "samples": 3, ...extras...}]}

``repro/ledger-v1`` (one ledger line, see
:mod:`repro.benchledger.ledger`)::

    {"schema": "repro/ledger-v1", "run_id": "3a0f…-b1c2…-0007",
     "family": "gateway", "manifest": {...}, "manifest_hash": "b1c2…",
     "record": {…a valid repro/bench-v1 document…}}
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
    tag,
    text,
)

BENCH_SCHEMA = "repro/bench-v1"
LEDGER_SCHEMA = "repro/ledger-v1"

#: Required string fields of a record's ``run`` provenance block
#: (matches :func:`repro.benchio.run_metadata`).
RUN_FIELDS = ("git_sha", "hostname", "python", "platform", "created_iso")

#: Required statistics on every row.  ``samples`` is an int; the rest
#: are finite non-negative numbers.  Extra row keys pass through
#: unvalidated (they are benchmark-specific: speedups, hit counts, …).
ROW_STATS = ("mean", "p50", "p95")

#: Manifest fields (see :mod:`repro.benchledger.manifest`).
MANIFEST_FIELDS = ("git_sha", "hostname", "python", "platform")


class BenchSchemaError(SchemaError, ValueError):
    """A record or ledger entry that does not conform to its schema.

    ``path`` points at the offending field (``rows[2].p50``,
    ``run.git_sha``); ``str(exc)`` embeds it.
    """


def _unique_row_names(record: Mapping[str, Any]) -> Optional[Tuple[str, str]]:
    names = set()
    for index, row in enumerate(record["rows"]):
        if row["name"] in names:
            return (
                f"rows[{index}].name",
                f"duplicate row name {row['name']!r} (rows align by name "
                "in historical compares)",
            )
        names.add(row["name"])
    return None


def _family_matches_record(entry: Mapping[str, Any]) -> Optional[Tuple[str, str]]:
    family, benchmark = entry["family"], entry["record"]["benchmark"]
    if family != benchmark:
        return (
            "family",
            f"family {family!r} does not match the record's benchmark "
            f"{benchmark!r}",
        )
    return None


#: A ledger entry's ``manifest`` block; ``Manifest.from_record`` checks
#: a record's ``run`` block against the same declaration.
MANIFEST = Schema({field: text() for field in MANIFEST_FIELDS})

ROW = Schema(
    {
        "name": text(),
        **{stat: number(ge=0) for stat in ROW_STATS},
        "samples": nullable(integer(ge=0)),
    },
    optional=("samples",),
    error=BenchSchemaError,
)

RECORD = Schema(
    {
        "schema": tag(BENCH_SCHEMA),
        "benchmark": text(),
        "created_unix": number(),
        "run": Schema({field: text() for field in RUN_FIELDS}),
        "meta": Schema({}),
        "rows": list_of(ROW, nonempty=True),
    },
    optional=("meta",),
    hook=_unique_row_names,
    error=BenchSchemaError,
)

ENTRY = Schema(
    {
        "schema": tag(LEDGER_SCHEMA),
        "run_id": text(),
        "family": text(),
        "manifest": MANIFEST,
        "manifest_hash": text(),
        "record": RECORD,
    },
    hook=_family_matches_record,
    error=BenchSchemaError,
)

#: One benchmark row: ``name`` + mean/p50/p95 (+ integer samples).
validate_row = ROW.validate
#: One ``repro/bench-v1`` document; returns it unchanged.
validate_record = RECORD.validate
#: One ``repro/ledger-v1`` line; returns it unchanged.
validate_entry = ENTRY.validate


__all__ = [
    "BENCH_SCHEMA",
    "LEDGER_SCHEMA",
    "MANIFEST_FIELDS",
    "ROW_STATS",
    "RUN_FIELDS",
    "BenchSchemaError",
    "validate_entry",
    "validate_record",
    "validate_row",
]
