import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from switchdwell import make_affine_subsystem, signal_from_dwell, simulate_switched
from switchdwell.cli import _trajectory_csv, emit_plot_data, main, run_scenario
from switchdwell.core import SwitchedSystem
from switchdwell.errors import UnsupportedDimension
from switchdwell.scenario import parse_scenario

BAD_DWELL = """
[system]
A = -1 -1 1 -1
family = u 1
u_values = 1 0 -1

[signal]
kind = from_dwell
initial_mode = 0
modes = -1
T = 0.5
x0 = 0 1
horizon = 1.0

[analysis]
eps = 0.05
trapping = true
"""


def scenario_path(name: str) -> str:
    return str(resources.files("switchdwell") / "scenarios" / name)


@pytest.fixture(scope="module")
def example1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1")
    code = main(["run", "--scenario", scenario_path("example1.scenario"), "--out", str(out)])
    return code, out


class TestMain:
    def test_example1_passes(self, example1_run):
        code, out = example1_run
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "dwell_table.json").exists()
        doc = json.loads((out / "dwell_table.json").read_text())
        assert doc["t_loc"] == pytest.approx(1.4260624389053681, rel=1e-12)
        assert doc["mu_closed_form_fallback"] is False

    def test_example2_triangle_report(self, tmp_path):
        code = main(
            ["run", "--scenario", scenario_path("example2.scenario"), "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "triangle_report.json").read_text())
        assert doc["detour_longer"] is True
        assert doc["gap"] == pytest.approx(-0.86089243187161875, rel=1e-10)
        assert doc["eps0"] == pytest.approx(0.72855339059327376, rel=5e-6)

    def test_missing_scenario_file_is_input_error(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.scenario")]) == 3

    def test_invalid_document_is_input_error(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[system]\n")
        assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3

    def test_trapping_failure_is_exit_2(self, tmp_path):
        p = tmp_path / "short.scenario"
        p.write_text(BAD_DWELL)
        assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_subcommand_restricts_analyses(self, tmp_path):
        code = main(
            ["certify", "--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path)]
        )
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"certificate_report.json", "manifest.json"}

    def test_eps_override(self, tmp_path):
        code = main(
            [
                "dwell",
                "--scenario",
                scenario_path("example1.scenario"),
                "--out",
                str(tmp_path),
                "--eps",
                "0.1",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "dwell_table.json").read_text())
        assert doc["eps"] == 0.1


EXAMPLE2 = (resources.files("switchdwell") / "scenarios" / "example2.scenario").read_text()


@pytest.mark.parametrize(
    "old,new",
    [
        ("eps = 0.05", "eps = abc"),
        ("seed = 42", "seed = x"),
        ("[analysis]", "[subsystem.7]\nA = -1 0 -1\nb = 0 0\n\n[analysis]"),
        ("times =\nmodes =", "times = 1.0 0.5\nmodes = 0 1"),
    ],
    ids=["eps", "seed", "non_square_A", "non_increasing_times"],
)
def test_bad_numbers_are_input_errors(tmp_path, capsys, old, new):
    assert old in EXAMPLE2
    p = tmp_path / "bad.scenario"
    p.write_text(EXAMPLE2.replace(old, new))
    assert main(["dwell", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestManifest:
    def test_every_file_listed_with_correct_hash(self, example1_run):
        _, out = example1_run
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {e["path"]: e["sha256"] for e in manifest["files"]}
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(listed) == on_disk
        for rel, digest in listed.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_trapping_report_passes(self, example1_run):
        _, out = example1_run
        doc = json.loads((out / "trapping_report.json").read_text())
        assert doc["all_passed"] is True
        # 16 boundary starts + x0 on the primary signal, one start on the cycle
        assert len(doc["runs"]) == 18


class TestPlotData:
    def test_emitted_files(self, example1_run):
        _, out = example1_run
        plot = out / "plot_cycle_0"
        names = {p.name for p in plot.iterdir()}
        assert names == {
            "trajectory.csv",
            "region_1.csv",
            "region_0.csv",
            "region_-1.csv",
            "switch_points.csv",
        }
        header = (plot / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,mode,V_active"
        switch_lines = (plot / "switch_points.csv").read_text().splitlines()
        assert switch_lines[0] == "t,x1,x2,prev_mode,next_mode"
        assert len(switch_lines) > 1

    def test_plot_trajectory_is_the_trajectory_csv(self, example1_run):
        _, out = example1_run
        plots = sorted(out.glob("plot_*/trajectory.csv"))
        assert len(plots) == 18
        for plot in plots:
            twin = out / f"trajectory_{plot.parent.name[len('plot_'):]}.csv"
            assert plot.read_bytes() == twin.read_bytes()

    def test_csv_matches_per_row_rendering(self, system):
        sig = signal_from_dwell(1, [0, -1, 1, 0], 0.7)
        traj = simulate_switched(system, sig, np.array([0.4, -0.3]), 3.3, 1e-3)
        lines = ["t,x1,x2,mode,V_active"]
        for t, x, m in zip(traj.times, traj.states, traj.modes):
            d = x - system[m].equilibrium
            cells = [t, *x]
            lines.append(",".join(f"{c:.17g}" for c in cells) + f",{m},{float(d @ d):.17g}")
        assert _trajectory_csv(traj, system) == "\n".join(lines) + "\n"

    def test_region_polyline_is_closed(self, example1_run):
        _, out = example1_run
        lines = (out / "plot_signal_0" / "region_1.csv").read_text().splitlines()
        assert lines[1] == lines[-1]
        assert len(lines) == 258  # header + 256 points + closing point

    def test_requires_two_dimensions(self, tmp_path):
        sub = make_affine_subsystem(-np.eye(3), np.zeros(3), "m")
        system = SwitchedSystem(subsystems=(sub,))
        sig = signal_from_dwell("m", [])
        traj = simulate_switched(system, sig, np.ones(3), 1.0, 1e-2)
        with pytest.raises(UnsupportedDimension):
            emit_plot_data(traj, system, 0.05, tmp_path)


class TestRunScenario:
    def test_dwell_violation_may_still_trap(self, tmp_path):
        # dwell compliance is sufficient, not necessary: T = 1.4 < t_loc but the
        # start is already deep inside, so the trapping verdict can still pass
        text = BAD_DWELL.replace("T = 0.5", "T = 1.4").replace(
            "x0 = 0 1", "x0 = -0.4 0.5"
        ).replace("horizon = 1.0", "horizon = 2.8")
        status, manifest = run_scenario(parse_scenario(text), tmp_path / "o")
        assert status == 0
        assert manifest["exit_status"] == 0
