"""The package's public names are its modules' public names."""

import copbands
from copbands import bands, copula, estimator, montecarlo, specfun

MODULES = (bands, copula, estimator, montecarlo, specfun)


def test_package_exports_every_module_export():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(copbands.__all__) == sorted(["__version__", *names])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(copbands, name) is getattr(module, name), name
