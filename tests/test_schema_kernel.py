"""The declarative validation kernel behind every persisted record."""

import math

import pytest

from repro.exceptions import ReproError, ValidationError
from repro.schema import (
    Schema,
    SchemaError,
    integer,
    is_number,
    list_of,
    nullable,
    number,
    one_of,
    tag,
    text,
)


class FamilyError(SchemaError, ValueError):
    pass


def _unique_names(doc):
    names = [item["name"] for item in doc["items"]]
    for index, name in enumerate(names):
        if name in names[:index]:
            return (f"items[{index}].name", f"duplicate name {name!r}")
    return None


ITEM = Schema({"name": text(), "weight": number(ge=0, le=1)})
DOC = Schema(
    {
        "schema": tag("demo-v1"),
        "count": integer(ge=1),
        "mode": one_of(("fast", "slow")),
        "note": nullable(text()),
        "items": list_of(ITEM, nonempty=True),
        "meta": Schema({"owner": text()}, closed=True),
    },
    optional=("note", "meta"),
    hook=_unique_names,
    error=FamilyError,
)


def _doc(**overrides):
    doc = {
        "schema": "demo-v1",
        "count": 2,
        "mode": "fast",
        "items": [{"name": "a", "weight": 0.5}],
    }
    doc.update(overrides)
    return doc


class TestValidate:
    def test_valid_document_returned_unchanged(self):
        doc = _doc(note=None, meta={"owner": "ops"})
        assert DOC.validate(doc) is doc

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"schema": "demo-v2"}, "schema"),
            ({"count": 0}, "count"),
            ({"count": 1.0}, "count"),
            ({"count": True}, "count"),
            ({"mode": "medium"}, "mode"),
            ({"note": "  "}, "note"),
            ({"items": []}, "items"),
            ({"items": {"name": "a"}}, "items"),
            ({"items": [{"name": "a", "weight": 1.5}]}, "items[0].weight"),
            ({"items": [{"name": "a", "weight": math.nan}]}, "items[0].weight"),
            ({"items": [{"weight": 0.1}]}, "items[0].name"),
            ({"meta": []}, "meta"),
            ({"meta": {"owner": "ops", "extra": 1}}, "meta"),
        ],
    )
    def test_violation_names_its_path(self, overrides, path):
        with pytest.raises(FamilyError) as excinfo:
            DOC.validate(_doc(**overrides))
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_missing_required_field(self):
        doc = _doc()
        del doc["mode"]
        with pytest.raises(FamilyError, match="mode: missing required field"):
            DOC.validate(doc)

    def test_hook_runs_after_fields_with_relative_path(self):
        items = [{"name": "a", "weight": 0.1}, {"name": "a", "weight": 0.2}]
        with pytest.raises(FamilyError) as excinfo:
            DOC.validate(_doc(items=items))
        assert excinfo.value.path == "items[1].name"

    def test_nested_schema_paths_carry_the_prefix(self):
        outer = Schema({"doc": DOC})
        with pytest.raises(SchemaError) as excinfo:
            outer.validate({"doc": _doc(count=-1)})
        assert excinfo.value.path == "doc.count"

    def test_non_object_root_has_empty_path(self):
        with pytest.raises(FamilyError) as excinfo:
            DOC.validate(["not", "an", "object"])
        assert excinfo.value.path == ""
        assert str(excinfo.value).startswith("expected an object")

    def test_unknown_keys_pass_through_open_schemas(self):
        DOC.validate(_doc(extra={"anything": [1, 2]}))

    def test_explicit_path_prefixes_errors(self):
        with pytest.raises(SchemaError) as excinfo:
            ITEM.validate({"name": ""}, "rows[3]")
        assert excinfo.value.path == "rows[3].name"


class TestSchemaError:
    def test_is_a_typed_validation_error(self):
        assert issubclass(SchemaError, ValidationError)
        assert issubclass(FamilyError, ReproError)

    def test_single_argument_is_a_pathless_message(self):
        # how jsonlio.read_jsonl builds ``error_cls(f"{file}:{line}: ...")``
        exc = FamilyError("ledger.jsonl:3: not valid JSON")
        assert exc.path == ""
        assert str(exc) == "ledger.jsonl:3: not valid JSON"


class TestIsNumber:
    @pytest.mark.parametrize("value", [0, 1.5, -2, math.inf])
    def test_numbers(self, value):
        assert is_number(value)

    @pytest.mark.parametrize("value", [True, "1", None, [1]])
    def test_non_numbers(self, value):
        assert not is_number(value)
