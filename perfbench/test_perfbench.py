"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import os
import shutil
import subprocess
import sys
import types
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import sqsplit  # noqa: E402
from run import tail_latency  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CRITERIA_COLUMNS, WORKLOADS, Op, unsplit_xi  # noqa: E402


def _inputs(name, seed, count=40):
    return list(islice(WORKLOADS[name](None).inputs(seed), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_inputs_stay_in_their_ranges():
    for inp in _inputs("criteria-n500", 3) + _inputs("negativity-n500", 3):
        assert 0.0 <= float(inp["t"]) <= 0.02
    cli = _inputs("wigner-cli", 3)
    assert [i["kind"] for i in cli[:4]] == ["marginal", "conditional"] * 2
    assert all(0 <= i["k_r"] <= 4 and 0.0 <= float(i["t"]) <= math.pi / 8 for i in cli)
    assert all(0 <= i["k_r"] <= 40 for i in _inputs("wigner-heralded", 3))


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert tail_latency(samples) == (30.0, 75.0, 10)
    assert tail_latency(samples[:21]) == (11.0, 100.0 * 11 / 21, 10)
    # below 21 samples the tenth-from-top sample is under the median
    assert tail_latency(samples[:20]) == (10.5, 50.0, 10)
    assert tail_latency(samples[:5]) == (3.0, 50.0, 2)


def test_tracer_restores_patched_functions_and_nests_spans():
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    original = module.inner
    with tracer.patched([(module, "inner", "inner"), (module, "outer", "outer")]):
        assert module.outer(1) == 4
    assert module.inner is original
    assert tracer.count("inner") == 1 and tracer.spans[1][3] == 0
    assert 0.0 <= tracer.self_time("outer") <= tracer.total("outer")
    assert tracer.total("never") is None and tracer.self_time("never") is None


def test_bracket_contains_untruncated_negativity():
    t = _inputs("negativity-n500", 1, 1)[0]["t"]
    lower, upper = sqsplit.log_negativity_bracket(sqsplit.mixed_split_state(500, t))
    exact = sqsplit.log_negativity_mixed(sqsplit.mixed_split_state(500, t, window=0))
    assert lower <= exact <= upper


def test_criteria_oracle_rejects_a_wrong_xi(tmp_path):
    workload = WORKLOADS["criteria-n500"](str(tmp_path))
    workload.load()
    inp = _inputs("criteria-n500", 5, 1)[0]
    row = [float(inp["t"])] + [1.0] * 8 + [0.3]
    row[4] = unsplit_xi(sqsplit, 500, row[0], row[9])

    def op_for(cells):
        text = "# {}\n" + ",".join(CRITERIA_COLUMNS) + "\n"
        text += ",".join(f"{x:.17g}" for x in cells) + "\n"
        return Op(0.0, b"", {"rc": 0, "blob": text.encode()})

    assert workload.check(inp, op_for(row)) is None
    row[4] *= 1.0 + 1e-6
    assert "xi" in workload.check(inp, op_for(row))


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wigner-heralded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_run_reports_layers_and_identical_outputs():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wigner-heralded",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the worker counts a traced/untraced byte mismatch as a failure
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for name in ("wigner.closed_s", "wigner.table_build_s", "wigner.norm_drift"):
        assert metrics[name]["value"] > 0.0
    assert metrics["observables.moments_s"]["value"] == -1
