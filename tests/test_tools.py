import dataclasses
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from switchdwell import signal_from_dwell, simulate_switched, verify_trapping

ROOT = Path(__file__).resolve().parents[1]


def _has_git_head() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    return done.returncode == 0


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ab_difference_is_none_only_for_the_same_bits(system, eps):
    ab = _load_tool("ab")
    sig = signal_from_dwell(1, [0, -1], 1.43)
    traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 4.0, 1e-3)
    result = (traj, verify_trapping(traj, system, sig, eps))
    again = simulate_switched(system, sig, np.array([0.7, -0.4]), 4.0, 1e-3)
    assert ab.difference(result, (again, verify_trapping(again, system, sig, eps))) is None
    ev = traj.switch_events[0]
    moved = dataclasses.replace(ev, state=ev.state + 1e-9)
    perturbed = dataclasses.replace(traj, switch_events=[moved] + traj.switch_events[1:])
    assert ab.difference(result, (perturbed, result[1])) == pytest.approx(1e-9, rel=1e-6)
    relabelled = dataclasses.replace(traj, initial_mode=1.0)
    assert ab.difference(result, (relabelled, result[1])) == float("inf")


def test_perfbench_gate_self_test_catches_a_flipped_verdict_and_a_moved_state(monkeypatch):
    # the self-test edits a trajectory with dataclasses.replace of its events
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    gen = importlib.import_module("gen")
    inproc = importlib.import_module("inproc")
    loop = inproc.Loop(gen.trap_sweep(903))
    loop.run_for(0)
    assert loop.attempted == len(loop.ops) and loop.failed == 0, loop.reasons
    assert inproc.gate_self_test(loop) == []


@pytest.mark.skipif(not _has_git_head(), reason="needs git and a repository with a HEAD")
def test_ab_against_head_reads_a_ratio_near_one(capsys):
    summary = _load_tool("ab").main(
        ["--base", "HEAD", "--workload", "callable_modes", "--seed", "3002",
         "--rounds", "25", "--kind", "boundary"]
    )
    assert summary["ops"] == 6
    assert 0.9 <= summary["median"] <= 1.1
    for key in ("op_p50", "op_p90"):
        assert 0.9 <= summary[key]["ratio"] <= 1.1
        lo, hi = summary[key]["interval"]
        assert lo <= hi and summary[key]["iqr"][0] <= summary[key]["iqr"][1]
    lo, hi = summary["per_op"]["interval"]
    assert 0.9 <= summary["per_op"]["median"] <= 1.1 and lo <= hi
    out = capsys.readouterr().out
    assert "ratio tree/base: median" in out and "op_p90 of per-op means" in out
    assert "per-op paired ratio tree/base" in out


@pytest.mark.skipif(not _has_git_head(), reason="needs git and a repository with a HEAD")
def test_clidiff_against_head_reads_identical(tmp_path):
    clidiff = _load_tool("clidiff")
    base_src = clidiff.extract("HEAD", tmp_path / "base").parent
    scenario = ROOT / "src" / "switchdwell" / "scenarios" / "example2.scenario"
    code, diffs, peak_mb, wall_s = clidiff.compare(base_src, scenario, "dwell", tmp_path / "runs")
    assert (code, diffs) == (0, [])
    # a cold run imports numpy: tens of MB, read from each child's own rusage
    assert all(10 < mb < 1000 for mb in peak_mb)
    assert all(0 < s < 60 for s in wall_s)


def test_clidiff_prints_peak_rss_and_exits_on_bytes_only(tmp_path, monkeypatch, capsys):
    clidiff = _load_tool("clidiff")
    monkeypatch.setattr(clidiff, "extract", lambda rev, dest: dest / "src" / "switchdwell")
    scenario = tmp_path / "s.scenario"
    for diffs, status in (([], 0), (["stdout"], 1)):
        result = (0, diffs, (45.94, 40.0), (0.1304, 0.11))
        monkeypatch.setattr(clidiff, "compare", lambda *args, result=result: result)
        assert clidiff.main(["--base", "HEAD", "--scenario", str(scenario)]) == status
        lines = capsys.readouterr().out.splitlines()
        verdict = "differs: stdout" if diffs else "identical (exit 0)"
        usage = "peak RSS 45.9 -> 40.0 MB; wall 0.130 -> 0.110 s"
        assert lines[0] == f"s.scenario run: {verdict}; {usage}"
        assert len(lines) == 8 and lines[-1] == f"{7 * status} of 7 runs differ"


def test_clidiff_loads_no_numpy():
    # a child's ru_maxrss starts from its parent's resident set
    code = "import sys; sys.path.insert(0, 'tools'); import clidiff; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert done.stdout == "False\n", done.stderr


def test_clidiff_flags_one_changed_byte(tmp_path):
    clidiff = _load_tool("clidiff")
    for side in ("base", "tree"):
        (tmp_path / side / "out").mkdir(parents=True)
        (tmp_path / side / "out" / "dwell_table.json").write_bytes(b'{"eps": 0.05}\n')
    assert clidiff.tree_differences(tmp_path / "base", tmp_path / "tree") == []
    (tmp_path / "tree" / "out" / "dwell_table.json").write_bytes(b'{"eps": 0.06}\n')
    (tmp_path / "tree" / "out" / "extra.csv").write_bytes(b"")
    assert clidiff.tree_differences(tmp_path / "base", tmp_path / "tree") == [
        "out/dwell_table.json differs",
        "out/extra.csv only in tree",
    ]


def test_clidiff_default_scenarios_write_every_report(tmp_path, capsys):
    from switchdwell.cli import main

    clidiff = _load_tool("clidiff")
    names = [p.name for p in clidiff.DEFAULT_SCENARIOS]
    assert names == [
        "example1.scenario",
        "example2.scenario",
        "parser_paths.scenario",
        "tube_convergence.scenario",
    ]
    written = set()
    for i, scenario in enumerate(clidiff.DEFAULT_SCENARIOS):
        out = tmp_path / str(i)
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        written |= {p.name for p in out.glob("*.json")}
    capsys.readouterr()
    reports = ("certificate", "trapping", "convergence", "triangle", "tube")
    assert written == {f"{r}_report.json" for r in reports} | {"dwell_table.json", "manifest.json"}


def test_memory_prints_samples_peak_rss_and_wall_of_cold_runs(capsys):
    memory = _load_tool("memory")
    assert memory.main(["--samples", "12000", "15000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" samples: ")[0] for line in lines] == ["12000", "15000"]
    for line in lines:
        peak, wall = line.split(": peak RSS ")[1].split(" MB; wall ")
        # a cold run imports numpy: tens of MB, read from each child's own rusage
        assert 10 < float(peak) < 1000 and 0 < float(wall.removesuffix(" s")) < 60
    code = "import sys; sys.path.insert(0, 'tools'); import memory; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert done.stdout == "False\n", done.stderr


def test_memory_prints_certificate_samples_peak_rss_and_wall_of_cold_runs(capsys):
    memory = _load_tool("memory")
    assert memory.main(["--cert-samples", "500"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    # the samples each mode's check tested, read from certificate_report.json
    assert line.startswith("500 certificate samples: peak RSS ")
    peak, wall = line.split(": peak RSS ")[1].split(" MB; wall ")
    assert 10 < float(peak) < 1000 and 0 < float(wall.removesuffix(" s")) < 60
