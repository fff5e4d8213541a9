"""Crash-consistency of the JSONL streams: short writes and torn tails.

An append is one ``write(2)``; if the kernel accepts only part of it
(ENOSPC, RLIMIT_FSIZE) the writer must fail loudly, and every reader
must treat the torn final line it leaves behind as absent rather than
refuse the whole stream.  Writers refuse to append after a torn line,
since the new line would merge with the fragment mid-stream.
"""

from __future__ import annotations

import itertools
import os
import warnings

import pytest

from repro import jsonlio
from repro.auditor import AuditLedger, AuditLedgerError
from repro.auditor.schema import AUDIT_SCHEMA, PROPERTY_KEYS
from repro.benchio import build_bench_record
from repro.benchledger import BenchLedger, LedgerError
from repro.exceptions import TraceFormatError
from repro.fleet.metrics import FleetMetricsWriter, read_fleet_metrics
from repro.fleet.schema import FleetSchemaError
from repro.scenarios.runner import ScenarioRoundRecord
from repro.traces import TRACE_SCHEMA, TraceStore


class TestShortWrite:
    def test_short_write_raises_instead_of_tearing_silently(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "s.jsonl")
        real_write = os.write
        monkeypatch.setattr(
            jsonlio.os, "write", lambda fd, data: real_write(fd, data[:5])
        )
        with pytest.raises(jsonlio.JsonlError, match="short write"):
            jsonlio.append_jsonl(path, {"key": "value"})

    def test_short_batch_write_raises(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.jsonl")
        monkeypatch.setattr(jsonlio.os, "write", lambda fd, data: 0)
        with pytest.raises(jsonlio.JsonlError, match=r"0 of \d+ bytes"):
            jsonlio.append_jsonl_lines(path, [{"a": 1}, {"b": 2}])

    def test_torn_line_from_a_short_write_reads_as_absent_and_blocks_appends(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "s.jsonl")
        jsonlio.append_jsonl(path, {"n": 1})
        real_write = os.write
        monkeypatch.setattr(
            jsonlio.os, "write", lambda fd, data: real_write(fd, data[:4])
        )
        with pytest.raises(jsonlio.JsonlError):
            jsonlio.append_jsonl(path, {"n": 2})
        monkeypatch.undo()
        with pytest.warns(RuntimeWarning, match=r"s\.jsonl:2: "):
            assert jsonlio.read_jsonl(path) == [{"n": 1}]
        with pytest.raises(
            jsonlio.JsonlError, match=r"s\.jsonl:2: ends in a torn"
        ):
            jsonlio.append_jsonl(path, {"n": 3})


def _bench_stream(root):
    ledger = BenchLedger(str(root))

    def append():
        ledger.append(
            build_bench_record(
                "gateway",
                [{"name": "hot", "mean": 0.1, "p50": 0.1, "p95": 0.2}],
            )
        )

    path = ledger.path_for("gateway")
    return path, lambda: ledger.entries("gateway"), append


def _audit_stream(root):
    ledger = AuditLedger(str(root))
    seeds = itertools.count()

    def append():
        ledger.append(
            {
                "schema": AUDIT_SCHEMA,
                "created_unix": 1722300000.0,
                "scenario": "steady",
                "scheduler": "oef-coop",
                "fingerprint": "abc123",
                "seed": next(seeds),
                "verdict": "pass",
                "properties": {key: "yes" for key in PROPERTY_KEYS},
                "violations": [],
                "elapsed_s": 0.01,
                "error": None,
            }
        )

    return ledger.path_for("steady"), lambda: ledger.records("steady"), append


def _fleet_stream(root):
    path = str(root / "fleet.jsonl")
    writer = FleetMetricsWriter(
        path, fleet="f", region="region0", seed=0, scheduler="oef-coop",
        flush_every=1,
    )
    rounds = itertools.count()

    def append():
        index = next(rounds)
        writer(
            ScenarioRoundRecord(
                round_index=index,
                time=300.0 * index,
                active_tenants=2,
                total_throughput=5.0,
                utilization=0.5,
                jain=1.0,
                envy=0.0,
                starved_jobs=0,
            )
        )

    return path, lambda: read_fleet_metrics(path), append


def _trace_stream(root):
    store = TraceStore(str(root))

    def save():
        store.save(
            "prod",
            [
                {
                    "schema": TRACE_SCHEMA,
                    "job_id": f"j{index}",
                    "tenant": "vc-a",
                    "submit_s": 60.0 * index,
                    "duration_s": 600.0,
                    "num_workers": 1,
                    "model": None,
                }
                for index in range(2)
            ],
        )

    # a save replaces the whole trace, so one save makes both records
    return store.path_for("prod"), lambda: store.load("prod"), save


def _two_record_stream(kind, root):
    """``(path, read, append)`` for a stream already holding two records."""
    path, read, append = STREAMS[kind][0](root)
    append()
    if kind != "trace-store":
        append()
    return path, read, append


#: stream kind -> (stream factory, reader's error class)
STREAMS = {
    "bench-ledger": (_bench_stream, LedgerError),
    "audit-ledger": (_audit_stream, AuditLedgerError),
    "fleet-sink": (_fleet_stream, FleetSchemaError),
    "trace-store": (_trace_stream, TraceFormatError),
}


@pytest.mark.parametrize("kind", sorted(STREAMS))
class TestTornTail:
    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path, kind):
        path, read, _ = _two_record_stream(kind, tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro/')  # crash mid-append
        with pytest.warns(RuntimeWarning, match=rf"{path}:3: "):
            records = read()
        assert len(records) == 2

    def test_torn_line_followed_by_a_newline_still_raises(
        self, tmp_path, kind
    ):
        path, read, _ = _two_record_stream(kind, tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro/\n')
        error_cls = STREAMS[kind][1]
        with pytest.raises(error_cls, match=rf"{path}:3: not valid JSON"):
            read()

    def test_append_after_a_torn_line_never_merges_lines(self, tmp_path, kind):
        path, read, append = _two_record_stream(kind, tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro/')
        if kind == "trace-store":
            append()  # a save replaces the torn file outright
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert len(read()) == 2
            return
        with pytest.raises(
            jsonlio.JsonlError, match=rf"{path}:3: ends in a torn line"
        ):
            append()
        with pytest.warns(RuntimeWarning, match=rf"{path}:3: "):
            assert len(read()) == 2
        with open(path, "rb+") as handle:  # cut the fragment out by hand
            content = handle.read()
            handle.truncate(content.rfind(b"\n") + 1)
        append()
        # the fleet writer keeps a refused batch and flushes it next time
        assert len(read()) == (4 if kind == "fleet-sink" else 3)


class TestAppendAfterAnUnterminatedLine:
    def test_a_whole_unterminated_final_line_gets_its_line_break(
        self, tmp_path
    ):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"n": 1}')  # hand-edited: final newline dropped
        jsonlio.append_jsonl(path, {"n": 2})
        assert jsonlio.read_jsonl(path) == [{"n": 1}, {"n": 2}]
