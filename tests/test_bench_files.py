"""Each committed ``BENCH_<n>.json`` agrees with ``BENCHMARK.json`` and with its own runs."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _number(path):
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name)[1])


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=_number)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_consistent(path):
    doc = json.loads(path.read_text())
    assert doc["pr"] == _number(path)
    assert {"nproc", "python", "numpy"} <= set(doc["machine"])
    bench = doc["benchmark"]
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            entry = bench["workloads"][workload["name"]][metric["name"]]
            for side in ("parent", "change"):
                runs, median = entry[side]["runs"], entry[side]["median"]
                assert len(runs) == bench["pairs"]
                assert median == statistics.median(runs)
                # the quartile method differs between files, so only their order is checked
                assert entry[side]["q1"] <= median <= entry[side]["q3"]
            parent, change = entry["parent"]["runs"], entry["change"]["runs"]
            assert entry["change_lower_in_pairs"] == sum(c < p for p, c in zip(parent, change))
