"""Cold start: the certificate commands load neither NumPy nor the pool.

NumPy is imported inside the array functions of potential, series and
checks, and the process pool inside certify._pmap on the branch that forks,
so ``import gelfond`` and the pure-math commands never pay for either.  The
direct sum, the orbit product and the multiplicativity check use neither;
verify loads NumPy for its fit.  Each case runs in a fresh interpreter,
because conftest.py loads NumPy into this one.  The benchmark's set-up probe
is guarded the same way: its set-up time is the import time of the package
and the benchmark's own modules.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gelfond

SRC = Path(gelfond.__file__).resolve().parent.parent
RUN = SRC.parent / "perfbench" / "run.py"
WATCHED = ("numpy", "concurrent.futures")

# prints the watched modules loaded after `import gelfond`, then runs
# cli.main on sys.argv[1:], if given, and prints its exit code and the
# watched modules loaded after it
PROBE = """
import contextlib, io, json, sys
from gelfond import cli
watched = %r
out = {"import": [m for m in watched if m in sys.modules]}
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        out["code"] = cli.main(sys.argv[1:])
    out["run"] = [m for m in watched if m in sys.modules]
print(json.dumps(out))
""" % (WATCHED,)


def _probe(argv=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_numpy_and_pool_unloaded():
    assert _probe() == {"import": []}


@pytest.mark.parametrize("argv", [
    ["gelfond", "--q", "2", "--c", "1/3"],
    ["cycles", "--q", "3", "--max-period", "5"],
    ["staircase", "--q", "2", "--points", "64"],
    ["profile", "--q", "2", "--lambda", "0.3", "--grid", "64"],
    ["validity", "--q", "2", "--max-period", "5", "--threads", "1"],
    ["table2", "--q", "2", "--max-period", "5", "--threads", "1"],
    ["beta-curve", "--q", "3", "--resolution", "16", "--threads", "1"],
], ids=lambda argv: argv[0])
def test_pure_math_command_leaves_numpy_and_pool_unloaded(argv):
    assert _probe(argv) == {"import": [], "code": 0, "run": []}


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "2", "--c", "0.3", "--samples", "8", "--n-max", "4",
     "--grid", "64"],
    ["checks", "--q", "4", "--grid", "64", "--c-points", "3",
     "--probe-c", "0.3", "--samples", "8", "--depth", "12"],
], ids=lambda argv: argv[0])
def test_array_command_loads_numpy_on_first_use(argv):
    assert _probe(argv) == {"import": [], "code": 0, "run": ["numpy"]}


# the verify command's direct sum and orbit products, called on their own
SERIES_PROBE = """
import json, sys
from fractions import Fraction
from gelfond import (PotentialParams, modulus_product, multiplicativity_check,
                     polynomial_sum)
params = PotentialParams(3, 0.25)
polynomial_sum(params, 3 ** 6, 0.123)
modulus_product(params, 6, 0.123)
modulus_product(params, 6, 1 - Fraction(0.123))
multiplicativity_check(params, 5, 3, 7, 0.123)
print(json.dumps([m for m in %r if m in sys.modules]))
""" % (WATCHED,)


def test_series_functions_leave_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SERIES_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("workload", ["curve-q2", "curve-hiq", "validity-q2",
                                      "crosscheck"])
def test_benchmark_setup_probe_imports_no_numpy(workload):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(RUN), "--setup-probe",
         "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stderr.splitlines()
             if ln.startswith("import time:")]
    assert any(re.search(r"\|\s*gelfond\.certify$", ln) for ln in lines)
    assert not [ln for ln in lines if re.search(r"\|\s*numpy(\.|$)", ln)]
