"""The package at a git revision, extracted for the A/B tools; standard library only.

``tools/clidiff.py`` imports this module and nothing that loads numpy: a
child's ``ru_maxrss`` starts from the resident set of the process that
spawned it, so a light parent keeps each run's peak its own.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, where: Path) -> Path:
    """``src/switchdwell`` at ``rev`` (``git archive``) extracted under ``where``: its directory."""
    done = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/switchdwell"],
        capture_output=True,
    )
    if done.returncode:
        raise SystemExit(f"git archive {rev} failed: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(where)
    return where / "src" / "switchdwell"
