"""The stdlib schedule and config reader against PyYAML, the reader it replaced.

yaml.safe_load (PyYAML, from the test extra) is the oracle.  Whenever
read_tree accepts a text, yaml.safe_load reads the same tree from it, so
parse_schedule gives the schedule, and a --config file the RunConfig, that
the yaml path gave.  Whenever read_tree rejects a text, the error is the
package's InputError and nothing else.  Texts come from format_schedule
output, dressed with comments, blank lines, spacing and unquoted words, and
from the mutations and YAML 1.1 scalar forms of the CLI contract tests.
"""

import argparse
import math
import re
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualspin import (InputError, ScheduleFormatError, SpinSystem, compile_gate,
                         exact_spectrum, format_schedule, parse_schedule)
from virtualspin import compiler
from virtualspin.cli import DEFAULTS, _load_config_file, _merge_config
from virtualspin.compiler import read_tree
from test_cli_contract import CONTRACT, SCHEDULE_GATES, config_texts, mutated_schedules
from test_gates import ALL_NOT_FAMILY

GRAMMAR_GATES = ALL_NOT_FAMILY + [g.replace("NOT", "UT") + "(1.2,-0.4)" for g in ALL_NOT_FAMILY]
SPECTRUM = exact_spectrum(SpinSystem(omegaQ=0.01, theta=np.pi / 5))
PARAMETERS = {"omega0": 1.0, "omegaQ": 0.01, "theta": np.pi / 5, "phi": 0.0, "gammaHrf": 1e-5}
COMPILED = {gate: format_schedule(compile_gate(gate, SPECTRUM, 1e-3, PARAMETERS))
            for gate in SCHEDULE_GATES}
REJECTED = "rejected"


def yaml_schedule(text, tree):
    """parse_schedule as it read `text`, with yaml.safe_load giving `tree`."""
    if not isinstance(tree, dict):
        raise ScheduleFormatError("schedule must be a key-value tree")
    with mock.patch.object(compiler, "read_tree", lambda _: tree):
        return parse_schedule(text)


def yaml_config(tree):
    """The RunConfig of a --config file that yaml.safe_load read as `tree` (no flags)."""
    tree = {} if tree is None else tree
    if not isinstance(tree, dict) or set(tree) - set(DEFAULTS):
        raise InputError("config file must be a mapping of known keys")
    return _merge_config(argparse.Namespace(), tree)


def schedule_as_yaml_reads_it(text):
    """parse_schedule(text), checked against the yaml path; None if rejected."""
    try:
        tree = read_tree(text)
    except ScheduleFormatError:
        return None
    yaml_tree = yaml.safe_load(text)
    assert repr(tree) == repr(yaml_tree), text
    try:
        sched = parse_schedule(text)
    except InputError:
        with pytest.raises(InputError):
            yaml_schedule(text, yaml_tree)
        return None
    # formatted text compares NaN fields too; the formatter is lossless
    assert format_schedule(sched) == format_schedule(yaml_schedule(text, yaml_tree)), text
    return sched


@pytest.mark.parametrize("gate", GRAMMAR_GATES)
def test_every_grammar_gate_round_trips_byte_for_byte(gate):
    for spectrum, gamma in ((None, None), (SPECTRUM, None), (SPECTRUM, 1e-3)):
        for parameters in (None, PARAMETERS):
            sched = compile_gate(gate, spectrum, gamma, parameters)
            text = format_schedule(sched)
            assert schedule_as_yaml_reads_it(text) == sched
            assert format_schedule(parse_schedule(text)) == text


@st.composite
def dressed(draw, lines):
    """The lines with comments, blank lines, trailing spaces, wider spacing and unquoted words."""
    out = []
    for line in lines:
        out += draw(st.sampled_from(([], [], [""], ["# a comment"], ["      # key: value"])))
        if draw(st.booleans()):
            line = re.sub(r'"([A-Za-z][A-Za-z0-9:;(),.+>-]*)"$', r"\1", line)
        if draw(st.booleans()):
            line = line.replace(": ", ":   ", 1)
        out.append(line + draw(st.sampled_from(("", "", "  ", " # note", "   # x: [1]"))))
    return "".join(line + "\n" for line in out)


@st.composite
def dressed_schedules(draw):
    gate = draw(st.sampled_from(GRAMMAR_GATES + list(SCHEDULE_GATES)))
    spectrum, gamma = draw(st.sampled_from(((None, None), (SPECTRUM, None), (SPECTRUM, 1e-3))))
    sched = compile_gate(gate, spectrum, gamma, draw(st.sampled_from((None, PARAMETERS))))
    return sched, draw(dressed(format_schedule(sched).splitlines()))


@settings(CONTRACT, max_examples=40)
@given(drawn=dressed_schedules())
def test_dressed_schedules_parse_as_yaml_reads_them(drawn):
    sched, text = drawn
    assert schedule_as_yaml_reads_it(text) == sched, text


@settings(CONTRACT, max_examples=150)
@given(text=mutated_schedules(COMPILED))
def test_mutated_schedules_parse_as_yaml_reads_them_or_fail_as_input_errors(text):
    schedule_as_yaml_reads_it(text)


def test_unquoted_words_comments_and_spacing_parse():
    text = ('# compiled by hand\n'
            'gate: CCNOT:QR->S   # the Toffoli\n'
            '\n'
            'spectrum_method: exact  \n'
            'parameters:\n'
            'groups:\n'
            '- - upper: 6\n'
            '    lower: 7\n'
            '    angle_rad: 3.141592653589793\n'
            '    phase_rad: 0.0\n'
            '    axis: Y\n'
            '    omega: null\n'
            '    duration:\n')
    sched = schedule_as_yaml_reads_it(text)
    assert sched.gate_string() == "CCNOT:QR->S" and sched.spectrum_method == "exact"
    assert sched.parameters is None and sched.groups[0][0].axis == "Y"


@pytest.mark.parametrize("form, value", [
    ("010", REJECTED),           # octal 8 to YAML 1.1
    ("1e-3", "1e-3"),            # a float needs a dot and a signed exponent
    ("1e+16", "1e+16"),
    ("1.0e3", "1.0e3"),
    ("1.0e+3", 1000.0),
    ("-0.0", -0.0),
    ("1:30", REJECTED),          # sexagesimal 90
    ("0x1f", REJECTED),
    ("1_000", REJECTED),
    ("yes", REJECTED), ("on", REJECTED), ("true", REJECTED), ("Off", REJECTED),
    ("Y", "Y"), ("n", "n"),      # not booleans to PyYAML
    (".inf", math.inf), ("-.Inf", -math.inf),
    ("2001-01-01", REJECTED),    # a date
    ("", None), ("~", None), ("null", None),
    ('"say \\"hi\\" \\\\ # not a comment"', 'say "hi" \\ # not a comment'),
    ('"a\\tb"', REJECTED), ("'x'", REJECTED), ("[1]", REJECTED), ("&a 1", REJECTED),
    ("!!str 1", REJECTED), ("|", REJECTED), ("a b", REJECTED), ("a:", REJECTED),
])
def test_yaml_1_1_scalars_read_as_yaml_reads_them_or_are_rejected(form, value):
    text = f"key: {form}\n"
    if value is REJECTED:
        with pytest.raises(ScheduleFormatError, match="line 1: "):
            read_tree(text)
    else:
        assert repr(read_tree(text)["key"]) == repr(value) == repr(yaml.safe_load(text)["key"])


@pytest.mark.parametrize("text, line", [
    ("omegaQ: 0.02\ntheta: 0\nomegaQ: 0.05\n", 3),
    ("parameters:\n  a: 1\n\n  a: 2\n", 4),
    ("groups:\n- - upper: 6\n    lower: 7\n  - upper: 1\n    upper: 2\n", 5),
    ("a: 1\nb:\n  - x: 1\n", 3),             # a tone line outside a group
    ("a: 1\n  b: 2\n", 2),                   # continuation of a plain scalar
    ("a:\tb\n", 1), ("a: b\r\n", 1), ("\ufeffa: b\n", 1),
    ("yes: 1\n", 1),
])
def test_reader_rejects_naming_the_line(text, line):
    with pytest.raises(ScheduleFormatError, match=f"^line {line}: "):
        read_tree(text)


def test_rejected_text_with_braces_is_named_literally():
    # messages are formatted only on failure, and the user's text is never a template
    with pytest.raises(ScheduleFormatError, match=r"^line 2: unsupported value 'x\{0\}\{\}'$"):
        read_tree("a: 1\nomega: x{0}{}\n")
    text = COMPILED["CCNOT:QR->S"].replace("upper: 6", 'upper: "{0}"')
    with pytest.raises(ScheduleFormatError, match=r"upper must be an integer, got '\{0\}'$"):
        parse_schedule(text)


def test_empty_parameters_block_is_null():
    assert read_tree("parameters:\n# nothing\ngroups:\n") == {"parameters": None, "groups": None}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "config.yml"


@settings(CONTRACT, max_examples=100)
@given(text=st.one_of(config_texts, config_texts.flatmap(lambda t: dressed(t.splitlines()))))
def test_config_files_read_as_yaml_reads_them_or_fail_as_input_errors(text, config_path):
    config_path.write_text(text)
    try:
        tree = _load_config_file(str(config_path))
    except InputError:
        return
    yaml_tree = yaml.safe_load(text)
    assert repr(tree) == repr(yaml_tree or {}), text
    try:
        config = _merge_config(argparse.Namespace(), tree)
    except InputError:
        with pytest.raises(InputError):
            yaml_config(yaml_tree)
        return
    assert config == yaml_config(yaml_tree), text
