"""The benchmark's golden corpus: one pass of each workload at seed 0 matches bench/golden.json."""

from pathlib import Path

import pytest

import copbands
import copbands.cli  # noqa: F401  (the cli workload's entry module)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["coverage", "deviation", "cli"])
def test_one_pass_matches_the_golden_corpus(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker

    golden = worker.golden_section(name)
    assert golden is not None  # a missing section would skip the comparison
    workload = worker.make_workload(copbands, name, 0, tmp_path, write_inputs=True)
    out = workload.in_process_pass() if name == "cli" else workload.timed_pass()
    assert workload.check(out, golden) == []
