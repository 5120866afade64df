"""Property tests over the scenario-file grammar, drawn from its key table."""

import io
import string
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdflow1d.cli import SCENARIO_KEYS, main

ENTRIES = [(section, key, field)
           for section, keys in SCENARIO_KEYS.items()
           for key, (_, _, field) in keys.items()]

# a leading '@' makes every value malformed for every parser: not a
# number, a boolean, a choice, 'auto', a time list or an 'r value' row;
# the rest of the value is any printable ASCII, '%', '#', ';' and '=' included
MALFORMED = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).map(
    lambda tail: "@" + tail
)
NAMES = st.text(string.ascii_lowercase + "_", min_size=1, max_size=12)


def _dry_run(ini):
    """Exit status and stderr of a dry run of the fig4 preset under ``ini``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        path.write_text(ini)
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["run", "--preset", "fig4", "--config", str(path), "--dry-run"])
    return code, err.getvalue()


@pytest.mark.parametrize("section, key, field", ENTRIES,
                         ids=[f"{section}.{key}" for section, key, _ in ENTRIES])
@settings(max_examples=5)
@given(value=MALFORMED)
def test_malformed_value_exits_2_naming_its_field(section, key, field, value):
    code, err = _dry_run(f"[{section}]\n{key} = {value}\n")
    assert code == 2, err
    assert f"(field: {field})" in err, err


@settings(max_examples=20)
@given(st.sampled_from(sorted(SCENARIO_KEYS)), NAMES)
def test_unknown_key_names_itself(section, key):
    assume(key not in SCENARIO_KEYS[section])
    code, err = _dry_run(f"[{section}]\n{key} = 1\n")
    assert code == 2, err
    assert f"unknown key {key!r} in [{section}] (field: {key})" in err, err


@settings(max_examples=10)
@given(NAMES.filter(lambda name: name not in SCENARIO_KEYS))
def test_unknown_section_names_itself(section):
    code, err = _dry_run(f"[{section}]\nx = 1\n")
    assert code == 2, err
    assert f"unknown section [{section}] (field: {section})" in err, err
