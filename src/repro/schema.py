"""One validation kernel for every JSON record the repo persists.

The benchmark records (``repro/bench-v1``), ledger entries
(``repro/ledger-v1``), audit records (``repro/audit-v1``), fleet-round
records (``repro/fleetmetrics-v1``) and stored traces
(``repro/trace-v1``) are each declared once, as a :class:`Schema` over
the small fixed set of checks below, and validated by the same code.
Stdlib-only: no ``jsonschema`` dependency.

A schema maps field names to checks, in the order they are checked::

    >>> ROW = Schema({"name": text(), "p50": number(ge=0),
    ...               "samples": nullable(integer(ge=0))},
    ...              optional=("samples",))
    >>> ROW.validate({"name": "hot", "p50": 0.1})
    {'name': 'hot', 'p50': 0.1}
    >>> try:
    ...     Schema({"rows": list_of(ROW)}).validate({"rows": [{"name": "a"}]})
    ... except SchemaError as exc:
    ...     print(exc.path, "-", exc.message)
    rows[0].p50 - missing required field

A :class:`Schema` is itself a check, so nested objects are written by
nesting schemas.  Errors carry a JSON-pointer-ish ``path``
(``rows[3].p95``, ``record.run.git_sha``; ``""`` is the document root)
and are raised as the schema's ``error`` class, so each record family
keeps its own typed error.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.exceptions import ValidationError

#: A field check: raises :class:`SchemaError` naming ``path`` on a bad value.
Check = Callable[[Any, str], None]

#: A cross-field rule, run once every field has passed: returns
#: ``(relative_path, message)`` for a violation, ``None`` otherwise.
Hook = Callable[[Mapping[str, Any]], Optional[Tuple[str, str]]]

_MISSING = object()


class SchemaError(ValidationError):
    """A document that does not conform to its schema.

    ``path`` points at the offending field and ``str(exc)`` embeds it.
    Built with a single argument (stream readers reporting a whole
    ``file:line``), the argument is the message and ``path`` is ``""``.
    """

    def __init__(self, path: str, message: Optional[str] = None):
        if message is None:
            path, message = "", path
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def is_number(value: Any) -> bool:
    """An int or float, but not a bool (``samples: true`` is no count)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check(accepts: Callable[[Any], Any], expected: str) -> Check:
    def check(value: Any, path: str) -> None:
        if not accepts(value):
            raise SchemaError(path, f"expected {expected}, got {value!r}")

    return check


def _bounded(
    kind: str, integral: bool,
    ge: Optional[float], gt: Optional[float], le: Optional[float],
) -> Check:
    bounds = [f"{op} {bound}" for op, bound in (
        (">=", ge), (">", gt), ("<=", le)) if bound is not None]
    return _check(
        lambda value: (
            is_number(value)
            and (not integral or isinstance(value, int))
            and value == value  # NaN is never a valid number
            and (ge is None or value >= ge)
            and (gt is None or value > gt)
            and (le is None or value <= le)
        ),
        f"{kind} {' and '.join(bounds)}".rstrip(),
    )


def number(
    ge: Optional[float] = None,
    gt: Optional[float] = None,
    le: Optional[float] = None,
) -> Check:
    """A non-NaN int or float (never a bool), optionally bounded."""
    return _bounded("a number", False, ge, gt, le)


def integer(ge: Optional[int] = None) -> Check:
    """An int (never a bool), optionally bounded below."""
    return _bounded("an integer", True, ge, None, None)


def text() -> Check:
    """A string with at least one non-whitespace character."""
    return _check(
        lambda value: isinstance(value, str) and value.strip(),
        "a non-empty string",
    )


def tag(expected: str) -> Check:
    """The schema-tag constant every record of a family carries."""
    return _check(lambda value: value == expected, repr(expected))


def one_of(choices: Sequence[Any]) -> Check:
    """One of a fixed set of values (an enum)."""
    return _check(lambda value: value in choices, f"one of {tuple(choices)}")


def nullable(inner: Check) -> Check:
    """``null`` or whatever ``inner`` accepts."""

    def check(value: Any, path: str) -> None:
        if value is not None:
            inner(value, path)

    return check


def list_of(item: Check, nonempty: bool = False) -> Check:
    """A JSON array whose every element passes ``item``."""
    is_list = _check(
        lambda value: isinstance(value, list) and (value or not nonempty),
        "a non-empty list" if nonempty else "a list",
    )

    def check(value: Any, path: str) -> None:
        is_list(value, path)
        for index, element in enumerate(value):
            item(element, f"{path}[{index}]")

    return check


class Schema:
    """A declarative object spec; also usable as a nested-object check.

    ``fields`` maps each key to its check, in checking order.  Keys in
    ``optional`` may be absent; every other key is required.  Unknown
    keys pass through unless ``closed``.  ``hook`` holds the cross-field
    rules and runs after every field has passed.  :meth:`validate`
    raises ``error`` (a :class:`SchemaError` subclass).
    """

    def __init__(
        self,
        fields: Mapping[str, Check],
        optional: Iterable[str] = (),
        closed: bool = False,
        hook: Optional[Hook] = None,
        error: Type[SchemaError] = SchemaError,
    ):
        optional = frozenset(optional)
        self.fields = tuple(
            (name, check, name not in optional)
            for name, check in fields.items()
        )
        self.closed = closed
        self.hook = hook
        self.error = error

    def __call__(self, value: Any, path: str) -> None:
        if not isinstance(value, Mapping):
            raise SchemaError(path, f"expected an object, got {value!r}")
        prefix = f"{path}." if path else ""
        for name, check, required in self.fields:
            item = value.get(name, _MISSING)
            if item is not _MISSING:
                check(item, prefix + name)
            elif required:
                raise SchemaError(prefix + name, "missing required field")
        if self.closed:
            known = [name for name, _, _ in self.fields]
            unknown = sorted(set(value) - set(known))
            if unknown:
                raise SchemaError(
                    path, f"unknown keys {unknown}; known: {known}"
                )
        if self.hook is not None:
            violation = self.hook(value)
            if violation is not None:
                raise SchemaError(prefix + violation[0], violation[1])

    def validate(self, value: Any, path: str = "") -> Any:
        """Check one document; returns it unchanged or raises ``error``."""
        try:
            self(value, path)
        except SchemaError as exc:
            raise self.error(exc.path, exc.message) from None
        return value


__all__ = [
    "Check",
    "Hook",
    "Schema",
    "SchemaError",
    "integer",
    "is_number",
    "list_of",
    "nullable",
    "number",
    "one_of",
    "tag",
    "text",
]
