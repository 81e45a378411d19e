"""The package's public names are its modules' public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import copbands
from copbands import bands, copula, estimator, montecarlo, specfun

MODULES = (bands, copula, estimator, montecarlo, specfun)


def test_package_exports_every_module_export():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(copbands.__all__) == sorted(["__version__", *names])
    assert set(copbands.__all__) | {"montecarlo"} <= set(dir(copbands))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(copbands, name) is getattr(module, name), name


# Each runs in a fresh interpreter after "import sys, copbands", which must
# not have loaded the engine; the engine loads on first use of one of its names.
FRESH = {
    "every-name-resolves": (
        "assert set(copbands.__all__) <= set(dir(copbands))\n"
        "from copbands import *\n"
        "import copbands.montecarlo as engine\n"
        "for name in copbands.__all__:\n"
        "    assert globals()[name] is getattr(copbands, name), name\n"
        "for name in engine.__all__:\n"
        "    assert getattr(copbands, name) is getattr(engine, name), name\n"
    ),
    "montecarlo-is-the-module": (
        "assert copbands.montecarlo is sys.modules['copbands.montecarlo']\n"
        "assert copbands.montecarlo.estimate_grid is copbands.estimate_grid\n"
    ),
    # the pattern of a tracer that wraps a package function and puts it back
    "setattr-round-trips": (
        "original = getattr(copbands, 'run_coverage')\n"
        "wrapped = lambda *args, **kwargs: original(*args, **kwargs)\n"
        "setattr(copbands, 'run_coverage', wrapped)\n"
        "assert copbands.run_coverage is wrapped and 'run_coverage' in dir(copbands)\n"
        "assert copbands.run_lil_check is copbands.montecarlo.run_lil_check\n"
        "assert copbands.run_coverage is wrapped\n"
        "setattr(copbands, 'run_coverage', original)\n"
        "assert copbands.run_coverage is copbands.montecarlo.run_coverage\n"
    ),
    "set-before-first-use-is-kept": (
        "copbands.run_coverage = None\n"
        "assert copbands.ExperimentConfig is copbands.montecarlo.ExperimentConfig\n"
        "assert copbands.run_coverage is None\n"
    ),
    "unknown-name-raises": (
        "assert not hasattr(copbands, 'run_everything')\n"
        "assert 'copbands.montecarlo' not in sys.modules\n"
    ),
}


@pytest.mark.parametrize("name", list(FRESH))
def test_fresh_package_loads_the_engine_on_first_use(name):
    code = ("import sys, copbands\n"
            "assert not [m for m in sys.modules if m.startswith('copbands.montecarlo')]\n"
            + FRESH[name])
    src = str(Path(copbands.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
