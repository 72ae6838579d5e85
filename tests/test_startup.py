"""What a command imports before it does any work.  Importing the
scipy.linalg package also loads numpy.f2py, numpy.testing and more, which
more than doubles the start-up time of every command; mpsolve takes its
LAPACK routines from scipy's extension module instead.  multiprocessing,
about 8 ms, is imported only where a worker is forked."""

import json
import os
import subprocess
import sys

import mpsolve

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mpsolve.__file__)))
SCENARIO = os.path.join(SRC, "mpsolve", "scenarios", "quench_eta025.json")
NOT_LOADED = ("scipy.linalg", "numpy.f2py", "numpy.testing", "multiprocessing")
ROUTINES = ("dgtsv", "dstebz", "dstein", "dstevd")

CHILD = """
import json, sys
%s
import mpsolve.cli
from mpsolve import eigensolver
rc = mpsolve.cli.main(["validate", sys.argv[1]])
loaded = [name for name in %r if name in sys.modules]
from scipy.linalg import lapack
same = all(getattr(eigensolver, name) is getattr(lapack, name) for name in %r)
print(json.dumps({"rc": rc, "loaded": loaded, "same": same}))
"""


def run_child(before: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD % (before, NOT_LOADED, ROUTINES),
                           SCENARIO], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_validate_loads_no_scipy_linalg():
    # and scipy.linalg imported afterwards exports the very same routines
    child = run_child("")
    assert child == {"rc": 0, "loaded": [], "same": True}


def test_routines_are_scipys_when_scipy_linalg_comes_first():
    child = run_child("import scipy.linalg")
    assert child["rc"] == 0 and child["same"]
