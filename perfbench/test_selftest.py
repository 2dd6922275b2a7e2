"""Self-test of the benchmark: python3 -m pytest perfbench

Tiny runs must print every metric BENCHMARK.json names, and the checker
must count corrupted or non-reproducible outputs as failed operations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from purcell_cool import cli  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# layers that run, so their metrics must be non-zero, per workload
ACTIVE = {
    "echo-wide": ("echo_s", "cpmg_s", "sequences_per_s", "ode.", "blochsim.",
                  "hamiltonian.", "coupling.", "thermal.s", "config.", "cli."),
    "sweep-narrow": ("rabi_s", "invrec_s", "fit_s", "sequences_per_s", "ode.", "blochsim.",
                     "hamiltonian.", "coupling.", "estimators.", "optimize.lm_calls",
                     "optimize.residual_evals", "optimize.self_s", "config.", "cli."),
    "levels-fit": ("spectrum_s", "coupling_s", "fit_s", "hamiltonian.", "coupling.",
                   "estimators.", "optimize.lm_calls", "optimize.residual_evals",
                   "thermal.s", "polarization.s", "config.", "cli."),
}


def tiny_run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = tiny_run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace or m["name"].startswith(ACTIVE[workload]):
            assert value > 0, m["name"]
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = tiny_run(tmp_path, "levels-fit", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def run_op(tmp_path, workload, name):
    """Build a tiny workload, run one of its operations; (runner, op, outdir)."""
    (tmp_path / "inputs").mkdir()
    wl = workloads.WORKLOADS[workload](0, "tiny", tmp_path / "inputs",
                                       lambda argv: run.invoke(cli, argv))
    runner = run.Runner(cli, wl, {})
    for op in wl.ops:
        out = tmp_path / op.name
        assert run.invoke(cli, op.argv(tmp_path) + ["--out", out]) == 0
        if op.name == name:
            assert runner.check(op, 0, out) is None
            return runner, op, out
    raise AssertionError(f"{workload} has no operation {name}")


def rewrite(out, name, edit, update_manifest):
    path = out / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    if update_manifest:  # so that only the physics check can notice
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        manifest["outputs"][name] = run.sha256_file(path)
        (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def flip_area(text):
    header, row = text.splitlines()[:2]
    param, area = row.split(",")
    return f"{header}\n{param},{-float(area)!r}\n"


def test_sign_flipped_echo_area_fails(tmp_path):
    runner, op, out = run_op(tmp_path, "echo-wide", "echo")
    rewrite(out, "summary.csv", flip_area, update_manifest=True)
    assert "disagrees" in runner.check(op, 0, out)


def test_output_not_matching_manifest_fails(tmp_path):
    runner, op, out = run_op(tmp_path, "echo-wide", "echo")
    rewrite(out, "summary.csv", flip_area, update_manifest=False)
    assert "manifest hash" in runner.check(op, 0, out)


def test_five_resonance_groups_fail(tmp_path):
    runner, op, out = run_op(tmp_path, "levels-fit", "spectrum")

    def drop_last_group(text):
        lines = text.splitlines()
        last = max(int(line.split(",")[0]) for line in lines[1:])
        return "\n".join(line for line in lines if not line.startswith(f"{last},")) + "\n"

    rewrite(out, "resonances.csv", drop_last_group, update_manifest=True)
    assert "5 resonance groups" in runner.check(op, 0, out)


def test_reference_area_mismatch_fails(tmp_path, monkeypatch):
    runner, op, out = run_op(tmp_path, "echo-wide", "echo")
    refs = json.loads(workloads.REFERENCE_FILE.read_text(encoding="utf-8"))
    refs["echo-wide/tiny/echo"] = [v * 1.01 for v in refs["echo-wide/tiny/echo"]]
    fake = tmp_path / "reference.json"
    fake.write_text(json.dumps(refs), encoding="utf-8")
    monkeypatch.setattr(workloads, "REFERENCE_FILE", fake)
    assert "reference" in runner.check(op, 0, out)


def test_hashes_differing_from_earlier_run_fail(tmp_path):
    runner, op, out = run_op(tmp_path, "levels-fit", "thermal")
    outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    runner.reference = {op.name: {name: "0" * 64 for name in outputs}}
    runner.first = {}
    assert "earlier run" in runner.check(op, 0, out)
