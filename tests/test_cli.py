import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from switchdwell import signal_from_dwell, simulate_switched
from switchdwell.cli import _trajectory_csv, main, run_scenario
from switchdwell.errors import IoError, ValidationError
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


EXAMPLE1 = (resources.files("switchdwell") / "scenarios" / "example1.scenario").read_text()


@pytest.mark.parametrize(
    "old,new",
    [
        ("samples = 10000", "samples = 0"),
        ("boundary_points = 16", "boundary_points = 2"),
        ("plot_data = true", "plot_data = true\nbox = 3 -3"),
        ("horizon = 2.86", "horizon = -1"),
        ("plot_data = true", "plot_data = true\nhorizon = -1"),
        ("plot_data = true", "tube = true\ntube_from = 1\ntube_to = 0\ntube_times = -1 2"),
        ("seed = 42", "seed = -5"),
        ("horizon = 2.86", "horizon = inf"),
        ("plot_data = true", "tube = true\ntube_from = 7\ntube_to = 0\ntube_times = 0 1"),
    ],
    ids=[
        "samples",
        "boundary_points",
        "box",
        "signal_horizon",
        "analysis_horizon",
        "tube_times",
        "seed",
        "infinite_horizon",
        "tube_label",
    ],
)
def test_out_of_range_values_are_input_errors(tmp_path, capsys, old, new):
    assert old in EXAMPLE1
    p = tmp_path / "bad.scenario"
    p.write_text(EXAMPLE1.replace(old, new, 1))
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()  # rejected while parsing, before any output


NO_PRIMARY = EXAMPLE1.replace("[signal]\n", "[signal.first]\n")


@pytest.mark.parametrize(
    "base,old,new,message",
    [
        (EXAMPLE1, "plot_data = true", "tube = true\ntube_from = 1\ntube_to = 0", "tube_times"),
        (EXAMPLE1, "u_values = 1 0 -1", "u_values = 1 0 -1 1", "duplicate mode label 1"),
        (EXAMPLE1, "u_values = 1 0 -1", "u_values = 1 0 1e300", "not a zero of the field"),
        (EXAMPLE1, "x0 = 0 1\n", "x0 = 0 1 2\n", "dimension 3"),
        (EXAMPLE1, "x0 = -0.5 0.5\n", "", "no initial conditions"),
        (EXAMPLE1, "horizon = 2.86\n", "", "no horizon"),
        (BAD_DWELL, BAD_DWELL[BAD_DWELL.index("[signal]") : BAD_DWELL.index("[analysis]")], "",
         "no signal"),
        (NO_PRIMARY, "trapping = true", "convergence = true", "primary [signal]"),
        (EXAMPLE1, "plot_data = true", "convergence = true\ni_max = 2", "i_max = 2 switches"),
        (
            EXAMPLE2,
            "u_values = 1 0 -1",
            "u_values = 1 0\n[subsystem.-1]\nA = -2 0 0 -2\nb = -2 0",
            "identical alpha, beta and decay rate",
        ),
        (EXAMPLE1, "plot_data = true", "triangle = true", "triangle_modes"),
        (EXAMPLE2, "transitions = 1:-1 1:0 0:-1\n", "", "needs transitions"),
        (EXAMPLE1, "start_region = 1\n", "", "go together"),
        (EXAMPLE1, "u_values = 1 0 -1", "u_values = 1 0 -1\ndimension = 2", "'dimension'"),
        (EXAMPLE1, "T = 1.43\nx0 = -0.5", "T = 1e-9\nx0 = -0.5", "switches"),
        (EXAMPLE1, "step = 0.001", "step = 1e-300", "RK4 samples"),
        (EXAMPLE1, "samples = 10000", "samples = 10000000", "samples: must be <="),
        (EXAMPLE1, "boundary_points = 16", "boundary_points = 10000000", "must be <="),
        (
            EXAMPLE1,
            "plot_data = true",
            "tube = true\ntube_from = 1\ntube_to = 0\ntube_times = 0 1\n"
            "tube_boundary_count = 600000",
            "tube points",
        ),
        (EXAMPLE1, "[signal.cycle]", "[signal.signal]", "[signal.signal]"),
        (
            EXAMPLE1,
            "u_values = 1 0 -1",
            "u_values = 1 0 -1\n[subsystem.s]\nA = -1.3022701777491792 1 1 -0.7678898104910783\n"
            "b = 1 1",
            "A of mode 's' is not invertible",
        ),
        (
            EXAMPLE2.replace("times =\n", "times =\nperiod = 1e-12\n", 1),
            "plot_data = true",
            "trapping = true",
            "must switch",
        ),
    ],
    ids=[
        "tube_without_times",
        "duplicate_labels",
        "ill_posed_mode",
        "x0_dimension",
        "no_starts",
        "no_horizon",
        "no_signal",
        "convergence_without_primary",
        "convergence_short_signal",
        "triangle_certificates",
        "triangle_without_modes",
        "dwell_without_transitions",
        "boundary_without_region",
        "system_dimension_key",
        "switch_budget",
        "sample_budget",
        "certificate_samples",
        "boundary_budget",
        "tube_budget",
        "shadowed_primary_signal",
        "singular_in_floating_point",
        "empty_periodic_pattern",
    ],
)
def test_incomplete_scenarios_are_input_errors(tmp_path, capsys, base, old, new, message):
    # the budget cases are rejected by arithmetic: nothing of that size is allocated
    assert old in base
    p = tmp_path / "bad.scenario"
    p.write_text(base.replace(old, new, 1))
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no analysis ran
    assert not (tmp_path / "o").exists()


def test_subcommand_analyses_are_checked_before_output(tmp_path, capsys):
    args = ["--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path / "o")]
    assert main(["triangle"] + args) == 3
    assert capsys.readouterr().err == "error: triangle analysis needs triangle_modes\n"
    assert main(["run"] + args + ["--step=1e-300"]) == 3
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_output_directory_failure_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(IoError):
        run_scenario(parse_scenario(BAD_DWELL), blocker / "o")
    args = ["run", "--scenario", scenario_path("example2.scenario"), "--out", str(blocker)]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("error: cannot create output directory")


def test_eps0_outside_the_search_domain_is_a_warning(tmp_path):
    p = tmp_path / "tri.scenario"
    p.write_text(EXAMPLE2.replace("triangle_modes = 1 0 -1", "triangle_modes = 1 1 -1"))
    assert main(["triangle", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["warnings"] == ["triangle: geometry outside the eps0 search domain"]
    doc = json.loads((tmp_path / "o" / "triangle_report.json").read_text())
    assert doc["eps0"] is None


@pytest.mark.parametrize("command", ["dwell", "certify", "run"])
def test_nonfinite_equilibrium_is_input_error(tmp_path, capsys, command):
    # a subnormal A passes the contraction test but puts x_u at [nan, inf]
    p = tmp_path / "subnormal.scenario"
    p.write_text(EXAMPLE1.replace("A = -1 -1 1 -1", "A = -1e-320 0 0 -1e-320"))
    assert main([command, "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be finite" in err
    assert not (tmp_path / "o").exists()


def test_eps0_without_threshold_is_a_warning(tmp_path):
    # a detour leg of 2e-7 leaves no eps in the search grid with a negative gap
    p = tmp_path / "tri.scenario"
    p.write_text(
        "[system]\nA = -1 -1 1 -1\n"
        "[subsystem.a]\nb = 0 2\n[subsystem.v]\nb = 0 2.0000002\n[subsystem.c]\nb = 1 1\n"
        "[analysis]\neps = 0.05\ndwell_table = true\ntransitions = a:v v:c a:c\n"
        "triangle = true\ntriangle_modes = a v c\n"
    )
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(p), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == ["triangle: geometry outside the eps0 search domain"]
    assert [e["path"] for e in manifest["files"]] == ["dwell_table.json", "triangle_report.json"]
    assert json.loads((out / "triangle_report.json").read_text())["eps0"] is None


@pytest.mark.parametrize(
    "flag,value", [("--seed", "-5"), ("--eps", "0"), ("--step", "-1e-3")]
)
def test_out_of_range_overrides_are_input_errors(tmp_path, capsys, flag, value):
    args = ["run", "--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path)]
    assert main(args + [f"{flag}={value}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_certify_does_not_import_scipy_stats(tmp_path):
    code = (
        "import sys\n"
        "from switchdwell.cli import main\n"
        f"status = main(['certify', '--scenario', {scenario_path('example1.scenario')!r},"
        f" '--out', {str(tmp_path)!r}])\n"
        "print(status, 'scipy.stats' in sys.modules)\n"
    )
    src = str(resources.files("switchdwell").parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


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
        modes = [traj.initial_mode] * len(traj.times)
        for ev in traj.switch_events:
            assert traj.times[ev.index] == ev.t
            modes[ev.index :] = [ev.next_mode] * (len(modes) - ev.index)
        lines = ["t,x1,x2,mode,V_active"]
        for t, x, m in zip(traj.times, traj.states, modes):
            d = x - system[m].equilibrium
            cells = [t, *x]
            lines.append(",".join(f"{c:.17g}" for c in cells) + f",{m},{float(d @ d):.17g}")
        assert _trajectory_csv(traj, system) == "\n".join(lines) + "\n"

    def test_region_polyline_is_closed(self, example1_run):
        _, out = example1_run
        lines = (out / "plot_signal_0" / "region_1.csv").read_text().splitlines()
        assert lines[1] == lines[-1]
        assert len(lines) == 258  # header + 256 points + closing point

    def test_requires_two_dimensions(self, tmp_path, capsys):
        text = (
            "[system]\nA = -1 0 0 0 -1 0 0 0 -1\nfamily = u 0 0\nu_values = 1 -1\n"
            "[signal]\ninitial_mode = 1\nx0 = 1 1 1\nhorizon = 1\n"
            "[analysis]\neps = 0.05\nplot_data = true\n"
        )
        with pytest.raises(ValidationError, match="2-D"):
            parse_scenario(text)
        p = tmp_path / "3d.scenario"
        p.write_text(text)
        assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: plot data emission needs a 2-D system\n"
        assert not (tmp_path / "o").exists()


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
