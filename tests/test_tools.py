import dataclasses
import importlib.util
import shutil
import subprocess
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


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_difference_is_none_only_for_the_same_bits(system, eps):
    ab = _load_ab()
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


@pytest.mark.skipif(not _has_git_head(), reason="needs git and a repository with a HEAD")
def test_ab_against_head_reads_a_ratio_near_one(capsys):
    summary = _load_ab().main(
        ["--base", "HEAD", "--workload", "callable_modes", "--seed", "3002",
         "--rounds", "9", "--kind", "boundary"]
    )
    assert summary["ops"] == 6
    assert 0.9 <= summary["median"] <= 1.1
    assert "ratio tree/base: median" in capsys.readouterr().out
