"""Smoke test for the benchmark itself, on the tiny ``smoke`` workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run._use_checkout_source()

SEED = 5
MODULES = ("geom", "graph", "rng", "scsd", "closure1", "closure2", "solver", "oracle", "cli")


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(*args: str) -> tuple[list[str], dict]:
    proc = _cli(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _attributes() -> dict[tuple[str, ...], object]:
    """Every module attribute of mbsn, and every attribute of its classes."""
    snap: dict[tuple[str, ...], object] = {}
    for mod in MODULES:
        m = importlib.import_module(f"mbsn.{mod}")
        for name, val in vars(m).items():
            snap[(mod, name)] = val
            if isinstance(val, type) and val.__module__ == m.__name__:
                for attr, v in vars(val).items():
                    snap[(mod, name, attr)] = v
    return snap


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    _, result = _result("--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_perturbed_reference_fails(tmp_path):
    res = run.run_workload(WORKLOADS["smoke"], SEED, 0, trace=False)
    assert res["correct"]
    refs = {f"{key}-k{k}": b for (key, k), b in res["bottlenecks"].items()}
    refs[sorted(refs)[0]] += 1e-9
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"seed": SEED, "bottlenecks": refs}), encoding="utf-8")
    res = run.run_workload(WORKLOADS["smoke"], SEED, 0, trace=False, reference=path)
    assert res["detail"]["failed_frac"] > 0 and res["failed"] > 0 and res["correct"] is False


def test_untraced_run_replaces_no_attribute(monkeypatch):
    before = _attributes()

    def refuse(self):
        raise AssertionError("tracer installed with tracing off")

    monkeypatch.setattr(run.Tracer, "install", refuse)
    res = run.run_workload(WORKLOADS["smoke"], SEED, 0, trace=False)
    assert res["correct"]
    after = _attributes()
    assert [k for k, v in before.items() if after.get(k) is not v] == []


def test_traced_run_restores_attributes_and_accounts_for_time():
    before = _attributes()
    res = run.run_workload(WORKLOADS["smoke"], SEED, 0, trace=True)
    after = _attributes()
    assert [k for k, v in before.items() if after.get(k) is not v] == []
    m = res["metrics"]
    assert res["correct"]
    assert res["detail"]["trace_skipped"] == []
    # calls made through the caller's name (mbsn.solver.build_2rng) are seen
    assert m["rng.build_2rng.calls"] > 0 and m["scsd.best_center.calls"] > 0
    assert abs(m["trace.layer_sum_frac"] - 1.0) < 0.05


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
