"""The committed BENCH_*.json records: every summary median, quartile and
count recomputes from the untraced runs it summarises, and every run
finished cleanly."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_summary_recomputes_from_runs(path):
    bench = json.loads(path.read_text())
    for run in bench["runs"]:
        assert run["rc"] == 0 and run["result"]["failed"] == 0, run
    untraced = [run for run in bench["runs"] if not run["trace"]]
    for workload, metrics in bench["summary"].items():
        for metric, entry in metrics.items():
            for side in ("parent", "change"):
                values = [
                    run["result"]["metrics"][metric]["value"]
                    for run in untraced
                    if run["workload"] == workload and run["side"] == side
                ]
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                assert entry[side] == {"q1": q1, "median": median, "q3": q3, "n": len(values)}, (
                    workload, metric, side,
                )
