"""The mutation runner's verdict on one pytest run, from its exit status and output."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def verdict(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import mutants

    return mutants.verdict


def test_a_passing_run_is_a_survivor(verdict):
    assert verdict(0, "455 passed in 24.01s\n") == ""


def test_failing_ids_are_counted_per_test_function(verdict):
    output = ("FAILED tests/test_a.py::test_f[1 2] - AssertionError: x - y\n"
              "FAILED tests/test_a.py::test_f[3]\n"
              "ERROR tests/test_b.py::test_g - ValueError\n"
              "2 failed, 1 error, 452 passed\n")
    assert verdict(1, output) == ("    tests/test_a.py::test_f (2 ids)\n"
                                  "    tests/test_b.py::test_g (1 id)")


@pytest.mark.parametrize("status, name", [
    (1, "tests failed"), (2, "interrupted"), (3, "internal error"),
    (4, "usage or conftest error"), (5, "no tests"), (-9, "unknown"),
])
def test_a_run_that_names_no_failing_test_is_killed_by_its_status(verdict, status, name):
    # a mutant that breaks "import copbands" stops pytest in conftest.py with
    # status 4 and no FAILED or ERROR line, which once read as a survivor
    output = ("ImportError while loading conftest 'tests/conftest.py'.\n"
              "E   ImportError: cannot import name '_ENGINE' from partially initialized module\n")
    assert verdict(status, output) == f"    pytest exit status {status} ({name})"


def test_failure_lines_count_only_under_status_1(verdict):
    assert verdict(2, "FAILED tests/test_a.py::test_f\n") == "    pytest exit status 2 (interrupted)"
