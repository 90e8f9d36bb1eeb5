"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [WORKLOAD ...]

Runs each workload (all four by default) at minimal length, once with
``--trace 0`` and once with ``--trace 1``, and asserts that the result
line is well formed, that every metric ``BENCHMARK.json`` names is
emitted with its unit, that no op failed (``failed_ratio == 0``), and
that the traced decomposition agrees with the untraced run.  Takes about
four minutes for all four workloads on a 2-core host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spec(spec: dict) -> None:
    """BENCHMARK.json and run.py name the same metrics with the same units."""
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS, e2e
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == run.PER_LAYER, set(layers) ^ set(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.NOMINAL_PASS_S)


def check_result(line: dict, expected: dict[str, str]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] is True and line["failed"] == 0, line
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(expected), line["metrics"]
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in argv or [w["name"] for w in spec["workloads"]]:
        line = result_line(workload, 0)
        check_result(line, e2e)
        for name in e2e:
            assert line["metrics"][name]["value"] > 0, (workload, name)
        traced = result_line(workload, 1)
        check_result(traced, layers)
        assert traced["metrics"]["failed_ratio"]["value"] == 0
        print(f"ok {workload}: {line['attempted']} ops", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
