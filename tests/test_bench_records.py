"""The committed benchmark records (`BENCH_<n>.json` at the repository root)
stay readable: each parses, names the machine it ran on, and reads correct
with no failed command on every workload of BENCHMARK.json at seed 42."""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted((name for name in os.listdir(ROOT)
                  if re.fullmatch(r"BENCH_\d+\.json", name)),
                 key=lambda name: int(name[6:-5]))


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def test_records_exist():
    assert RECORDS
    assert len(workloads()) == 4


@pytest.mark.parametrize("name", RECORDS)
def test_record_reads_correct_at_seed_42(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        record = json.load(fh)
    machine = record["machine"]
    assert isinstance(machine, dict)
    for key in ("python", "numpy", "scipy"):
        assert isinstance(machine[key], str) and machine[key]
    for workload in workloads():
        line = record["seed42"][workload]
        assert line["correct"] is True, workload
        assert line["failed"] == 0, workload
