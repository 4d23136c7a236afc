"""V and W bytes do not depend on the BLAS kernel.

Each run is a fresh interpreter with ``OPENBLAS_CORETYPE`` unset or set to
one of three core types; OpenBLAS built with DYNAMIC_ARCH (numpy's wheels)
then picks that kernel.  An OpenBLAS built without DYNAMIC_ARCH ignores the
variable, and there the test passes trivially.  The states are fixed arrays,
not a simulation, because the RK4 kernel's products do go through BLAS.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CORE_TYPES = [None, "Haswell", "SandyBridge", "Prescott"]

PROBE = """
import hashlib
import numpy as np
from switchdwell import SwitchedSystem, make_affine_subsystem
from switchdwell.sim import SwitchEvent, Trajectory, _v_active, _v_exit, _w_verdicts

rng = np.random.default_rng(7)
X = rng.normal(size=(4000, 5)) * 3.0
centres = rng.normal(size=(3, 5))
# A = -I: the equilibria and decay rates are exact under any LAPACK
system = SwitchedSystem(
    subsystems=tuple(make_affine_subsystem(-np.eye(5), e, i) for i, e in enumerate(centres))
)
times = np.arange(4000) * 1e-3
switches = [(1000, 0, 1), (2500, 1, 2), (3100, 2, 0)]
events = [SwitchEvent(times[i], a, b, X[i], i) for i, a, b in switches]
traj = Trajectory(times=times, states=X, initial_mode=0, switch_events=events, step=1e-3)
v_exit = _v_exit(traj, system)
w = [v.max_relative_increase for v in _w_verdicts(traj, system)]
h = hashlib.sha256()
for part in (system[0].v_batch(X), _v_active(traj._plan, system, X), v_exit, np.array(w)):
    h.update(part.tobytes())
print(h.hexdigest())
"""


def test_v_and_w_bytes_are_the_same_under_every_core_type():
    procs = []
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    for core in CORE_TYPES:
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", PROBE],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    digests = []
    for core, proc in zip(CORE_TYPES, procs):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (core, err)
        digests.append(out.strip())
    assert len(digests[0]) == 64
    assert digests == digests[:1] * len(CORE_TYPES), dict(zip(CORE_TYPES, digests))
