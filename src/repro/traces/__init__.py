"""Trace ingestion: normalize external cluster traces, store them as
``repro/trace-v1`` JSONL, and replay them as seeded ``trace:<name>``
scenarios (the generalization of the ``philly-replay`` special case).

Pipeline::

    repro ingest-trace jobs.csv --name prod-week
        normalize   (repro.traces.normalize: alias mapping, t=0 anchor)
      → store       (repro.traces.store:     schema-validated JSONL)
      → replay      (repro.traces.replay:    'trace:prod-week' scenario)
    repro simulate --scenario trace:prod-week
"""

from repro.traces.normalize import ingest_file, load_rows, normalize_rows
from repro.traces.replay import (
    TRACE_PREFIX,
    build_trace_replay,
    trace_rows,
    trace_scenario,
)
from repro.traces.store import (
    DEFAULT_TRACE_DIR,
    TRACE_DIR_ENV,
    TRACE_SCHEMA,
    TraceSchemaError,
    TraceStore,
    validate_trace_record,
)

__all__ = [
    "DEFAULT_TRACE_DIR",
    "TRACE_DIR_ENV",
    "TRACE_PREFIX",
    "TRACE_SCHEMA",
    "TraceSchemaError",
    "TraceStore",
    "build_trace_replay",
    "ingest_file",
    "load_rows",
    "normalize_rows",
    "trace_rows",
    "trace_scenario",
    "validate_trace_record",
]
