"""Property tests of the CLI exit-code contract.

Every call exits 0 (ok), 1 (verification mismatch), 2 (input error) or 3
(numerical-resolution error); no exception escapes cli.main; exits 2 and
3 end stderr with one "error:" line; and a schedule that compile writes
holds only finite or null frequencies and pulse lengths.  Arguments are
drawn over every float (nan, +-inf, subnormals, +-1e308) for each
parameter flag a command reads, plus, in one draw of five, a parameter
flag it does not read, grammar gate strings with drawn UT payloads, mutated
compile output for verify --schedule and simulate, flat --config files
over the config keys, unknown keys and YAML 1.1 scalar forms, and sweep's
own flags: level pairs, point counts and omegaQ/omega0 bounds.  simulate's
--steps is tried at and beyond its bounds.
"""

import contextlib
import io
import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virtualspin.cli import DEFAULTS, FORMATS, MAX_SWEEP_POINTS, METHODS, PARAMETERS, main
from virtualspin.gates import CONTROL_COUNT, SPINS, UT_FAMILY
from virtualspin.system import Q2_FORMS

# an overflow is reported by the one "error:" line, never by a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONTRACT = settings(derandomize=True, deadline=None, database=None)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        lines = err.splitlines()
        assert lines and lines[-1].startswith("error: "), (argv, err)
        assert sum(line.startswith("error:") for line in lines) == 1, (argv, err)
    return code, out


@st.composite
def gate_strings(draw):
    kind = draw(st.sampled_from(sorted(CONTROL_COUNT)))
    target = draw(st.sampled_from(SPINS))
    others = draw(st.permutations([s for s in SPINS if s != target]))
    controls = "".join(others[:CONTROL_COUNT[kind]])
    text = f"{kind}:{controls}->{target}" if controls else f"{kind}:{target}"
    if kind in UT_FAMILY:
        text += f"({draw(st.floats())!r},{draw(st.floats())!r})"
    return text


gate_sequences = st.lists(gate_strings(), min_size=1, max_size=3).map(";".join)


def mostly(good, bad):
    """good four times in five, so most draws get past the flag checks."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 4 else good)


def parameter_values(name):
    allowed = PARAMETERS[name][1]
    return st.sampled_from(allowed) if isinstance(allowed, tuple) else st.floats().map(repr)


def options(command):
    """--flag=value lists of command's parameters; one draw in five adds one it does not read."""
    reads = [name for name, entry in PARAMETERS.items() if command in entry[3].split()]
    own = st.fixed_dictionaries({}, optional={name: parameter_values(name) for name in reads})
    stray = st.sampled_from([name for name in PARAMETERS if name not in reads]).flatmap(
        lambda name: parameter_values(name).map(lambda value: {name: value}))
    drawn = mostly(own, st.tuples(own, stray).map(lambda both: {**both[0], **both[1]}))
    return drawn.map(lambda flags: [f"--{name.replace('_', '-')}={value}"
                                    for name, value in sorted(flags.items())])


command_argv = st.one_of(
    options("spectrum").map(lambda opts: ["spectrum", *opts]),
    st.sampled_from(("compile", "verify")).flatmap(
        lambda command: st.tuples(gate_sequences, options(command)).map(
            lambda drawn: [command, drawn[0], *drawn[1]])),
)


@settings(CONTRACT, max_examples=200)
@given(argv=command_argv)
# eigensolver overflow, once a traceback with exit 1
@example(argv=["spectrum", "--omegaQ=1e200"])
@example(argv=["compile", "NOT:S", "--omegaQ=1e300"])
@example(argv=["compile", "NOT:S", "--omega0=1e-320", "--omegaQ=1e-30"])
# a pulse length beyond floating point, once written as "duration: inf"
@example(argv=["compile", "UT:R(1e308,0)"])
def test_flags_and_gates_keep_the_exit_code_contract(argv):
    code, out = check_contract(argv)
    if argv[0] == "compile" and code == 0:
        for group in yaml.safe_load(out)["groups"]:
            for tone in group:
                for key in ("omega", "duration"):
                    assert tone[key] is None or math.isfinite(tone[key]), (argv, tone)


SCHEDULE_GATES = ("CCNOT:QR->S", "CNOT:R->S", "UT:Q(1.2,0.4)", "NOT:S;CCUT:QR->S(-1.0,0.3)")
TOKENS = ("null", ".nan", ".inf", "-.inf", "[1]", "{a: 1}", '"x"', "x", "''", "-1", "0", "9",
          "true", "1e400", "1" + "0" * 400, "- - upper: 1", ":")
# plain scalars whose YAML 1.1 type is easy to get wrong: 010 is 8, 1e-3 a string, Y a string
YAML11_FORMS = ("010", "1e-3", "1e+16", "1.0e3", "1.0e+3", "1:30", "0x1f", "yes", "on", "true",
                ".inf", "2001-01-01", "Y", "y", "~", "", "1_000", ".5", "-.5", "1.")


@pytest.fixture(scope="module")
def compiled_schedules():
    return {gate: call(["compile", gate])[1] for gate in SCHEDULE_GATES}


@pytest.fixture(scope="module")
def schedule_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "schedule.st"


@st.composite
def mutated_schedules(draw, compiled):
    lines = compiled[draw(st.sampled_from(SCHEDULE_GATES))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        key, _, _ = lines[index].partition(": ")
        action = draw(st.sampled_from(("value", "delete", "duplicate", "truncate")))
        if action == "value":
            value = draw(st.one_of(st.sampled_from(TOKENS + YAML11_FORMS),
                                   st.floats().map(repr), st.integers(-10, 10).map(str)))
            lines[index] = f"{key}: {value}"
        elif action == "delete":
            del lines[index]
        elif action == "duplicate":
            lines.insert(index, lines[index])
        else:
            lines[index] = lines[index][:draw(st.integers(0, len(lines[index])))]
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(CONTRACT, max_examples=120)
@given(data=st.data())
def test_mutated_schedules_keep_the_exit_code_contract(data, compiled_schedules,
                                                       schedule_path):
    schedule_path.write_text(data.draw(mutated_schedules(compiled_schedules)))
    fmt = data.draw(st.sampled_from(FORMATS))
    check_contract(["verify", "--schedule", str(schedule_path), "--format", fmt])
    check_contract(["simulate", str(schedule_path), "--format", fmt])


# --steps below 20 under-resolves a period; above the 1e8-slice limit it once overflowed
# (10**400, a traceback with exit 1) or blamed the pulse alone (10**8, 10**20)
@pytest.mark.parametrize("steps, expected", [(0, 3), (19, 3), (20, 0), (10**8, 3), (10**20, 3),
                                             (10**400, 3)],
                         ids=["0", "19", "20", "1e8", "1e20", "1e400"])
def test_simulate_steps_keep_the_exit_code_contract(steps, expected, compiled_schedules,
                                                    schedule_path):
    schedule_path.write_text(compiled_schedules["CCNOT:QR->S"])
    code, _, err = call(["simulate", str(schedule_path), f"--steps={steps}"])
    assert code == expected
    if code:
        [line] = err.splitlines()
        assert line.startswith("error: ") and f"steps_per_shortest_period = {steps}" in line


CONFIG_KEYS = (*DEFAULTS, "omegaq", "gate", "steps")
config_values = st.one_of(st.sampled_from(TOKENS + YAML11_FORMS + METHODS + FORMATS + Q2_FORMS),
                          st.floats().map(repr), st.integers(-10, 10).map(str))
config_texts = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), config_values), max_size=4).map(
    lambda items: "".join(f"{key}: {value}\n" for key, value in items))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "config.yml"


@settings(CONTRACT, max_examples=80)
@given(text=config_texts, argv=st.sampled_from((["spectrum"], ["compile", "CCNOT:QR->S"],
                                                 ["verify", "NOT:S"])))
def test_config_files_keep_the_exit_code_contract(text, argv, config_path):
    config_path.write_text(text)
    check_contract([*argv, "--config", str(config_path)])


def joined(pairs):
    return pairs.map(lambda drawn: "".join(map(str, drawn)))


# valid, reversed and equal level pairs in both spellings; out-of-range pairs and garbage
pair_strings = mostly(
    joined(st.tuples(st.integers(0, 7), st.sampled_from(",-"), st.integers(0, 7))),
    joined(st.tuples(st.integers(-2, 9), st.sampled_from(",-"), st.integers(-2, 9)))
    | st.text(max_size=8))
point_counts = mostly(st.integers(2, 40), st.one_of(
    st.integers(-2, 1), st.sampled_from((MAX_SWEEP_POINTS + 1, 10**9))))
# omegaQ/omega0 bounds: an increasing pair in the perturbative regime, or any two floats
sweep_bounds = mostly(
    st.tuples(st.floats(1e-6, 1e-3), st.floats(1.5, 100)).map(lambda d: (d[0], d[0] * d[1])),
    st.tuples(st.floats(), st.floats()))
sweep_options = mostly(st.lists(st.sampled_from(("--theta=0", "--theta=0.5", "--phi=1.0",
                                                 "--q2-form=sin-squared")),
                                unique=True, max_size=3),
                       options("sweep"))


@settings(CONTRACT, max_examples=150)
@given(pair=pair_strings, points=point_counts, bounds=sweep_bounds, opts=sweep_options)
# an infinite upper bound, once a numpy RuntimeWarning and an error naming omegaQ
@example(pair="5,7", points=20, bounds=(1e-4, math.inf), opts=[])
@example(pair="5,7", points=3, bounds=(1e-4, math.inf), opts=["--theta=0.5"])
# bounds one rounding apart, once a RuntimeWarning and a nan slope with exit 0
@example(pair="5,7", points=2, bounds=(1e-4, 1.0000000000000002e-4), opts=[])
# bounds 1e-13 apart, once exit 0 with a slope fitted over rounding noise
@example(pair="5,7", points=3, bounds=(1e-4, 1.0000000000001e-4), opts=[])
def test_sweep_keeps_the_exit_code_contract(pair, points, bounds, opts):
    argv = ["sweep", f"--pair={pair}", f"--points={points}",
            f"--min={bounds[0]!r}", f"--max={bounds[1]!r}", *opts]
    code, out = check_contract(argv)
    if code == 0:
        assert len(out.splitlines()) == points + 2, argv
