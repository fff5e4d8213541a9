"""Shared append-only JSONL primitives for the repo's ledgers and sinks.

Three subsystems keep durable state as schema-validated JSONL streams:
the benchmark ledger (:mod:`repro.benchledger.ledger`), the audit
ledger (:mod:`repro.auditor.ledger`), and the fleet metrics sink
(:mod:`repro.fleet.metrics`).  They used to each carry a private copy
of the same three helpers; this module is the single home for them.

The write discipline is shared by all three: each entry is serialized
to one line and written with a single ``O_APPEND`` ``write(2)``
followed by ``fsync``, so concurrent appenders interleave whole lines,
never halves, and a crash leaves either the full new line or nothing.
:func:`append_jsonl_lines` extends the same guarantee to a batch —
POSIX ``O_APPEND`` writes are atomic per ``write(2)`` call, so a batch
lands as one contiguous block of whole lines and costs one fsync
instead of one per line (the fleet sink's per-window flush relies on
this to keep streaming cheap).

Reads validate every line and report failures with ``{path}:{lineno}``
so a corrupt or hand-mangled line is caught where it lives, not
downstream in a compare or aggregate.  The one tolerated defect is a
torn tail: a *final* line with no trailing newline that does not parse
is what a crash or a short write mid-append leaves behind, so readers
skip it with a ``RuntimeWarning`` instead of refusing the whole stream.
Writers do the opposite and refuse to append after it: the new line
would merge with the fragment into one bad line mid-stream, and every
later read would refuse.  The fragment has to be cut out by hand.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Type,
)


class JsonlError(RuntimeError):
    """A JSONL file that cannot be read (corrupt line, bad schema)."""


def safe_filename(name: str, suffix: str = ".jsonl") -> str:
    """Map an arbitrary stream name onto a safe ``<name>.jsonl`` filename.

    Alphanumerics plus ``-``, ``_``, and ``.`` pass through; everything
    else becomes ``_``.  This is the naming rule every ledger directory
    in the repo uses, so stream names round-trip through
    ``os.listdir`` discovery.
    """
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    )
    return f"{safe}{suffix}"


def dump_line(entry: Mapping[str, object]) -> bytes:
    """One canonical JSONL line: sorted keys, numpy scalars as floats."""
    return (
        json.dumps(entry, sort_keys=True, default=float) + "\n"
    ).encode("utf-8")


def _line_break_needed(fd: int, path: str) -> bytes:
    """What must precede a new line so it does not merge with the last.

    ``b""`` when the stream is empty or ends in a newline; ``b"\n"``
    when its final line is whole but unterminated (hand-edited files).
    A torn final line raises: appending after it would glue the new
    line onto the fragment and leave one bad line mid-stream, which
    every later read refuses.
    """
    size = os.fstat(fd).st_size
    if not size or os.pread(fd, 1, size - 1) == b"\n":
        return b""
    with open(path, "rb") as handle:
        content = handle.read()
    tail = content[content.rfind(b"\n") + 1:]
    lineno = content.count(b"\n") + 1
    try:
        if tail.strip():
            json.loads(tail)
    except ValueError:
        raise JsonlError(
            f"{path}:{lineno}: ends in a torn line "
            f"({len(tail)} bytes, no trailing newline); cut it out "
            "before appending"
        ) from None
    return b"\n"


def _append_bytes(path: str, data: bytes) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        data = _line_break_needed(fd, path) + data
        # never loop on a short write: a second write(2) could land
        # after another appender's line and split this one in two
        written = os.write(fd, data)
        if written != len(data):
            raise JsonlError(
                f"{path}: short write ({written} of {len(data)} bytes) "
                "left a torn final line; reads skip it, appends refuse "
                "until it is cut out"
            )
        os.fsync(fd)
    finally:
        os.close(fd)


def append_jsonl(path: str, entry: Mapping[str, object]) -> None:
    """Atomically append one entry: one line, one write, one fsync."""
    _append_bytes(path, dump_line(entry))


def append_jsonl_lines(
    path: str, entries: Iterable[Mapping[str, object]]
) -> int:
    """Append a batch of entries with a single write + fsync.

    Returns the number of entries written.  An empty batch touches
    nothing (no file is created).
    """
    lines = [dump_line(entry) for entry in entries]
    if not lines:
        return 0
    _append_bytes(path, b"".join(lines))
    return len(lines)


def read_jsonl(
    path: str,
    validate: Optional[Callable[[Mapping[str, object]], None]] = None,
    error_cls: Type[Exception] = JsonlError,
) -> List[Dict[str, object]]:
    """All validated entries of one stream, in append order.

    A missing file reads as the empty stream.  Blank lines are skipped
    (a crash mid-write can leave a trailing newline), and so is a torn
    tail — a final line without its newline that is not valid JSON —
    with a ``RuntimeWarning`` naming ``{path}:{lineno}``.  Any other
    line that is not valid JSON, or that ``validate`` rejects, raises
    ``error_cls`` with the offending ``{path}:{lineno}`` so the bad line
    can be found and excised by hand.
    """
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):  # torn tail: only the last line
                    warnings.warn(
                        f"{path}:{lineno}: skipping a torn final line "
                        "(no trailing newline, not valid JSON)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    break
                raise error_cls(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if validate is not None:
                try:
                    validate(entry)
                except Exception as exc:
                    raise error_cls(f"{path}:{lineno}: {exc}") from None
            entries.append(entry)
    return entries


def list_streams(root: str, suffix: str = ".jsonl") -> List[str]:
    """Stream names present in a ledger directory, sorted."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name[: -len(suffix)]
        for name in os.listdir(root)
        if name.endswith(suffix)
    )


__all__ = [
    "JsonlError",
    "append_jsonl",
    "append_jsonl_lines",
    "dump_line",
    "list_streams",
    "read_jsonl",
    "safe_filename",
]
