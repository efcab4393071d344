"""Smoke test of the benchmark itself, at reduced size (vax only).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must emit every metric ``BENCHMARK.json`` names, with its
unit, and pass its own correctness checks on two seeds; a corrupted spec
must fail the checks; and the benchmark must refuse to run where there
is no program to measure.
"""

import copy
import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def _bench():
    sys.path.insert(0, str(HERE))
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize(
    "workload,trace,seed",
    [(w, t, 1997) for w in WORKLOADS for t in (0, 1)] + [(w, 0, 7) for w in WORKLOADS],
)
def test_reduced_run_emits_every_metric(workload, trace, seed):
    proc = _run(
        ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--targets", "vax",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        assert values["failed_fraction"] == 0
        assert values["machines.assembler.calls"] > 0
    else:
        assert all(values[m["name"]] > 0 for m in declared)


def test_corrupted_spec_fails_the_checks():
    bench = _bench()
    bench._import_program()
    report = bench.discover("vax", 1997)
    corrupted = copy.deepcopy(report.spec)
    plus, minus = corrupted.rules["Plus"], corrupted.rules["Minus"]
    plus.instrs = copy.deepcopy(minus.instrs)  # Plus now subtracts
    checks = bench.Checks()
    bench.check_reports({"vax": report}, 0.0, checks, {"vax": corrupted})
    assert checks.failed > 0
    assert checks.failed / checks.attempted > 0
    clean = bench.Checks()
    bench.check_reports({"vax": report}, 0.0, clean)
    assert clean.failed == 0


def test_refuses_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
