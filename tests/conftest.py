import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavefront as wf

# every model file through the five commands and the golden comparison, in an
# interpreter no test has loaded SciPy in; it records the scipy modules loaded
# after the import of the CLI and after each run, and every function of the
# package that the import and the runs entered, and prints them as its last line
FRESH_RUN = """
import json
import sys
from pathlib import Path

entered = set()
def called(frame, event, arg):  # a global trace function sees only "call" events
    entered.add(frame.f_code)
sys.settrace(called)

import wavefront.cli
from golden import regen

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import, loaded, main = scipy_modules(), {}, wavefront.cli.main
def recorded(argv):
    code = main(argv)
    loaded[regen.run_key(Path(argv[2]), argv[0])] = scipy_modules()
    return code
wavefront.cli.main = recorded  # regen.run_all imports main when it runs
check = regen.main(["--check"])
sys.settrace(None)
src = Path(wavefront.cli.__file__).parent
entered = sorted([Path(code.co_filename).name, code.co_firstlineno, code.co_name]
                 for code in entered if Path(code.co_filename).parent == src)
print(json.dumps({"check": check, "at_import": at_import, "loaded": loaded, "entered": entered}))
"""


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def local_model():
    """The local delayed reaction-diffusion family with the logistic birth term."""
    return wf.LocalDelayedRD(g=wf.logistic(2.0, 1.0), L=2.0, delay=0.0)


@pytest.fixture(scope="session")
def solver_grid():
    return wf.Grid(-60.0, 40.0, 4096)


@pytest.fixture(scope="session")
def noncritical_profile(local_model, solver_grid):
    prob = local_model.to_convolution_form(2.5)
    prof = wf.solve_profile(prob, solver_grid, wf.CappedExponential(0.5, 0.5),
                            wf.SolveOptions(tol=1e-9, max_iter=20000))
    return prob, prof


@pytest.fixture(scope="session")
def critical_profile(local_model, solver_grid):
    prob = local_model.to_convolution_form(2.0)
    prof = wf.solve_profile(prob, solver_grid, wf.CappedExponential(1.0, 0.25),
                            wf.SolveOptions(tol=1e-9, max_iter=40000))
    return prob, prof


@pytest.fixture(scope="session")
def fresh_golden_run():
    """One fresh-interpreter run of ``regen.py --check`` over every model file.

    A dict: ``check`` (its exit code), ``report`` (what it printed),
    ``at_import`` (the scipy modules after ``import wavefront.cli``),
    ``loaded`` (run -> the scipy modules after that run) and ``entered``
    (the code objects of ``src/wavefront`` that were called, each as
    [file, first line, name]).
    """
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-c", FRESH_RUN], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    *report, last = done.stdout.splitlines()
    return {**json.loads(last), "report": "\n".join(report)}
