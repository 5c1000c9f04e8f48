"""Tests for the benchmark harness: tiny runs of every workload complete, the
answer checks catch wrong answers, and traced runs are deterministic.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
import lfac  # noqa: E402
from lfac import SplitRational, render, verify  # noqa: E402
from lfac.poles import NovSplit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def short_warmup(monkeypatch):
    monkeypatch.setattr(run, "WARM_S", 0.05)


def tiny_run(wl):
    return run.timed_run(wl, seed=1, seconds=0.2, root=ROOT, setup_repeats=1)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_completes(name):
    result = tiny_run(workloads.make(name, ROOT))
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["notes"]["failures"]
    assert set(result["metrics"]) == END_TO_END
    assert all(v > 0 for v in result["metrics"].values())


def test_wrong_golden_is_a_failure(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "tests" / "golden", golden)
    for f in golden.iterdir():
        f.write_bytes(f.read_bytes() + b"wrong\n")
    result = tiny_run(workloads.CliCold(ROOT, golden=golden))
    assert result["failed"] == result["attempted"] >= 1
    assert result["notes"]["failed_share"] == 1.0


def test_failing_suite_verdict_is_a_failure(monkeypatch):
    check = verify.check_lemma71

    def wrong(w):
        report = check(w)
        report.record(0, 0, "deliberately wrong")
        return report
    monkeypatch.setattr(verify, "check_lemma71", wrong)
    result = tiny_run(workloads.make("verify_lemma71", ROOT))
    assert result["failed"] >= 1 and result["notes"]["failed_share"] > 0


@pytest.mark.parametrize("sums", [False, True])
def test_text_that_does_not_parse_back_is_a_failure(monkeypatch, sums):
    text = render.text
    monkeypatch.setattr(render, "text", lambda v: "%s + 1" % text(v))
    result = tiny_run(workloads.Queries(sums=sums))
    assert result["notes"]["failed_share"] > 0


def test_broken_split_identity_is_a_failure(monkeypatch):
    split = lfac.nov_split
    extra = SplitRational.from_poles([7])

    def wrong(pi, sigma):
        s = split(pi, sigma)
        return NovSplit(s.full, s.regular, s.exceptional * extra, s.report)
    monkeypatch.setattr(lfac, "nov_split", wrong)
    items = workloads.Queries().trace_items(1)[:6]
    statuses = {op.status for item in items
                for op in workloads.Queries().run_item(item)}
    assert workloads.FAILED in statuses


def test_refusals_repeat_at_a_fixed_seed():
    wl = workloads.Queries()
    items = wl.trace_items(4)
    first = [op.status for item in items for op in wl.run_item(item)]
    second = [op.status for item in items for op in wl.run_item(item)]
    assert first == second
    assert workloads.REFUSED in first and workloads.OK in first


@pytest.mark.parametrize("wl", [
    workloads.VerifySuite("soudry", trace_trials=6),
    workloads.Queries(trace_requests=8)], ids=["verify_soudry", "queries"])
def test_traced_runs_are_deterministic(wl):
    first = run.traced_run(wl, seed=2, root=ROOT, import_repeats=1)
    second = run.traced_run(wl, seed=2, root=ROOT, import_repeats=1)
    assert first["failed"] == 0
    assert set(first["metrics"]) == PER_LAYER
    counts = [k for k in PER_LAYER
              if isinstance(first["metrics"][k], int)
              or k in ("scalar.monomial_share", "splitrat.merge_ratio")]
    assert "scalar.ops" in counts and "dsl.refused" in counts
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["scalar.ops"] > 0


def test_tracer_restores_every_binding():
    import lfac.dsl
    import lfac.scalar
    import lfac.wdrep

    def bindings():
        # a method, a function and its copies made by imports, and a
        # constructor captured in a DSL closure
        closure = lfac.dsl._SIMPLE["gsp4.IIa"].__closure__
        return (lfac.scalar.Scalar.__mul__, lfac.wdrep.tensor, lfac.tensor,
                lfac.catalog.lfactor,
                [c.cell_contents for c in closure
                 if callable(c.cell_contents)])
    before = bindings()
    assert before[-1] == [lfac.catalog.type_IIa]
    run.traced_run(workloads.Queries(trace_requests=2), seed=1, root=ROOT,
                   import_repeats=1)
    assert bindings() == before


def test_command_prints_result_line_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed",
         "3", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
