"""Bad input to the CLI ends in one ``error:`` line and exit 2."""

import json

import pytest

from repro.cli import main

#: input kind -> file content (``None``: the file does not exist)
BAD_INPUTS = {
    "missing": None,
    "not-json": "this is not json\n",
    "wrong-schema": json.dumps({"schema": "repro/bench-v1", "rows": []}),
}

COMMANDS = {
    "allocate": [],
    "audit": ["--sp-trials", "1"],
    "compare": [],
    "frontier": ["--alphas", "0,1"],
}


@pytest.mark.parametrize("kind", sorted(BAD_INPUTS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_instance_is_a_typed_error(tmp_path, capsys, command, kind):
    path = tmp_path / "instance.json"
    if BAD_INPUTS[kind] is not None:
        path.write_text(BAD_INPUTS[kind])
    assert main([command, str(path), *COMMANDS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
