"""Which modules a process loads: the integrator only when it integrates.

`virtualspin.dynamics` is imported on the first lookup of one of its names
through the package, and by the `simulate` command, so a cold call of any
other command, `sweep` included, neither compiles nor runs it.  Fresh
interpreters (`-X importtime`, which lists every module a process imports)
check the cold calls; the rest runs in this process.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import virtualspin
from virtualspin import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}


def cold(cwd, *args):
    """Exit code, stdout and the set of modules imported by `python -X importtime ARGS`."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=ENV,
                            capture_output=True, text=True)
    imported = set(re.findall(r"^import time:.*\|\s*(\S+)$", result.stderr, re.M))
    return result.returncode, result.stdout, imported


@pytest.fixture(scope="module")
def schedule(tmp_path_factory):
    path = tmp_path_factory.mktemp("loading") / "toffoli.st"
    assert cli.main(["compile", "CCNOT:QR->S", "--out", str(path)]) == 0
    return path


def test_importing_the_package_leaves_the_integrator_unloaded(tmp_path):
    code, _, imported = cold(tmp_path, "-c", "import virtualspin")
    assert code == 0 and "virtualspin" in imported
    assert "virtualspin.dynamics" not in imported


def test_the_integrator_module_resolves_through_the_package(tmp_path):
    code, out, imported = cold(tmp_path, "-c", "import virtualspin as vs; "
                               "print(vs.dynamics.simulate_schedule.__module__)")
    assert code == 0 and out == "virtualspin.dynamics\n"
    assert "virtualspin.dynamics" in imported


@pytest.mark.parametrize("argv", [
    ("spectrum",), ("compile", "CCNOT:QR->S"), ("verify", "CCNOT:QR->S"),
    ("verify", "--schedule", "{schedule}"),
])
def test_commands_that_do_not_integrate_leave_it_unloaded(schedule, argv):
    argv = [arg.format(schedule=schedule) for arg in argv]
    code, out, imported = cold(schedule.parent, "-m", "virtualspin.cli", *argv)
    assert code == 0 and out
    assert "virtualspin.compiler" in imported
    assert "virtualspin.dynamics" not in imported


def test_sweep_leaves_numpy_masked_arrays_unloaded(tmp_path):
    # numpy 1.x imports numpy.ma in `import numpy` itself, numpy 2 on first use:
    # the sweep must add nothing of numpy's to what `import numpy` loads
    code, out, imported = cold(tmp_path, "-m", "virtualspin.cli", "sweep", "--pair", "5,7",
                               "--points", "6")
    assert code == 0 and "# fitted_slope: pair=5-7" in out
    assert "virtualspin.dynamics" not in imported
    _, _, numpy_alone = cold(tmp_path, "-c", "import numpy")
    assert "numpy" in numpy_alone
    assert "numpy.ma" not in imported - numpy_alone


def test_simulate_loads_the_integrator_and_runs(schedule):
    code, out, imported = cold(schedule.parent, "-m", "virtualspin.cli", "simulate",
                               str(schedule), "--format", "csv")
    assert code == 0 and "# deviation: " in out
    assert "virtualspin.dynamics" in imported


def test_every_exported_name_resolves():
    for name in virtualspin.__all__:
        assert getattr(virtualspin, name) is not None
    namespace = {}
    exec("from virtualspin import *", namespace)
    assert set(virtualspin.__all__) <= set(namespace)
    assert {*virtualspin.__all__, "dynamics"} <= set(dir(virtualspin))
    # one public name per object: the operator set is SpinSystem.ops, a one-tone propagator
    # multi_tone_propagator((tone,)), and a gate's payload the block target_gate writes
    for retired in ("simulate", "Projector", "make_spin_operators", "pulse_propagator"):
        with pytest.raises(AttributeError, match=f"no attribute '{retired}'"):
            getattr(virtualspin, retired)
    assert not hasattr(virtualspin.GateSpec, "payload")


def test_integrator_names_are_looked_up_not_stored():
    from virtualspin import dynamics
    assert virtualspin.simulate_schedule is dynamics.simulate_schedule
    assert virtualspin.IntegrationConfig is dynamics.IntegrationConfig
    assert "simulate_schedule" not in vars(virtualspin)


def test_traced_simulate_nests_the_integrator_under_the_command(schedule):
    # bench/spans.Tracer swaps each function at its module attribute; a name the
    # package stored on first lookup would keep whichever function was current then
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    from virtualspin import dynamics
    original = dynamics.simulate_schedule
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert virtualspin.simulate_schedule is not original
        assert cli.main(["simulate", str(schedule), "--out", str(schedule.with_suffix(".txt"))]) == 0
    finally:
        tracer.uninstall()
    assert virtualspin.simulate_schedule is original
    names = [span[0] for span in tracer.spans]
    simulate = names.index("dynamics.simulate_schedule")
    assert names[tracer.spans[simulate][3]] == "cli.simulate"
    assert any(name == "dynamics.evolve" and parent == simulate
               for name, _, _, parent, *_ in tracer.spans)
