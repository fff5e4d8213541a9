"""The trace store: ingested cluster traces as ``repro/trace-v1`` JSONL.

One trace = one schema-validated JSONL file under the store root, one
line per job, written and read through the shared :mod:`repro.jsonlio`
primitives (the same append-fsync discipline as the benchmark and
audit ledgers).  The canonical record is deliberately tiny — the six
facts replay needs, nothing else::

    {"schema": "repro/trace-v1", "job_id": "j1", "tenant": "vc-a",
     "submit_s": 0.0, "duration_s": 1800.0, "num_workers": 1,
     "model": null}

``model`` is an optional zoo-model name; replay assigns a seeded model
from the catalog when a trace has none (external traces rarely name
reproducible model families).

``$REPRO_TRACE_DIR`` overrides where :meth:`TraceStore.default` looks;
an *empty* value disables default-store discovery (tier-1 test
isolation, the ledger convention).  Otherwise the default is the
``traces/`` directory relative to the current checkout.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Optional

from repro import jsonlio
from repro.exceptions import (
    TraceFormatError,
    UnknownTraceError,
    unknown_name_message,
)
from repro.schema import (
    Schema,
    SchemaError,
    integer,
    nullable,
    number,
    tag,
    text,
)

#: Schema tag carried by every stored trace record.
TRACE_SCHEMA = "repro/trace-v1"

#: Environment variable naming the default trace-store directory.
#: Set to the empty string to disable default-store discovery.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Default store location inside a repo checkout (relative to cwd).
DEFAULT_TRACE_DIR = "traces"


class TraceSchemaError(SchemaError, TraceFormatError):
    """A stored job record that violates ``repro/trace-v1``."""


TRACE_RECORD = Schema(
    {
        "schema": tag(TRACE_SCHEMA),
        "job_id": text(),
        "tenant": text(),
        "submit_s": number(ge=0),
        "duration_s": number(gt=0),
        "num_workers": integer(ge=1),
        "model": nullable(text()),
    },
    optional=("model",),
    error=TraceSchemaError,
)

#: Reject anything that is not a well-formed ``repro/trace-v1`` job.
validate_trace_record = TRACE_RECORD.validate


class TraceStore:
    """Save, list, and load ingested traces in one directory."""

    def __init__(self, root: str):
        self.root = str(root)

    @classmethod
    def default(cls) -> Optional["TraceStore"]:
        """The conventional store for this invocation, if any.

        ``$REPRO_TRACE_DIR`` wins (empty value → ``None``, i.e. trace
        discovery disabled); otherwise ``traces/`` relative to the
        current directory — created on first ingest.
        """
        if TRACE_DIR_ENV in os.environ:
            value = os.environ[TRACE_DIR_ENV]
            return cls(value) if value else None
        return cls(DEFAULT_TRACE_DIR)

    # -- paths -----------------------------------------------------------

    def path_for(self, name: str) -> str:
        return os.path.join(self.root, jsonlio.safe_filename(name))

    def names(self) -> List[str]:
        """Ingested trace names, from the ``*.jsonl`` files on disk."""
        return jsonlio.list_streams(self.root)

    # -- reading ---------------------------------------------------------

    def load(self, name: str) -> List[Dict[str, object]]:
        """All validated job records of one trace, in stored order."""
        if name not in self.names():
            raise UnknownTraceError(
                unknown_name_message("trace", name, self.names())
                + f" (store: {self.root}; ingest with 'repro ingest-trace')"
            )
        return jsonlio.read_jsonl(
            self.path_for(name),
            validate=validate_trace_record,
            error_cls=TraceFormatError,
        )

    # -- writing ---------------------------------------------------------

    def save(
        self, name: str, records: List[Mapping[str, object]]
    ) -> str:
        """Write one trace (replacing any previous version); returns its path.

        Every record is validated before the first byte lands, so a save
        either stores the whole trace or nothing.
        """
        if not records:
            raise TraceFormatError(
                f"trace {name!r} has no job records after normalization"
            )
        for record in records:
            validate_trace_record(record)
        path = self.path_for(name)
        os.makedirs(self.root, exist_ok=True)
        if os.path.exists(path):
            os.remove(path)
        jsonlio.append_jsonl_lines(path, records)
        return path


__all__ = [
    "DEFAULT_TRACE_DIR",
    "TRACE_DIR_ENV",
    "TRACE_SCHEMA",
    "TraceSchemaError",
    "TraceStore",
    "validate_trace_record",
]
