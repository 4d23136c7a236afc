import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from switchdwell import signal_from_dwell, simulate_switched, verify_trapping, w_monitor
from switchdwell import _csv, _stream, cli, sim
from switchdwell._csv import Runs, csv_blocks
from switchdwell.cli import _SUBCOMMAND_FLAGS, _trajectory_csv, main, run_scenario
from switchdwell.core import ClassKFn, Subsystem, SwitchedSystem, make_affine_subsystem
from switchdwell.errors import IoError, NonfiniteState, ValidationError
from switchdwell.scenario import parse_scenario
from switchdwell.sim import _v_active, _v_exit

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


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # a forked writer is reaped before emit returns, on errors too
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_subcommands_write_the_bytes_of_run(tmp_path, example1_run):
    # each subcommand's files are the same-named files of a full run, byte for byte
    runs = {"example1": example1_run[1], "example2": tmp_path / "example2_run"}
    args = ["--scenario", scenario_path("example2.scenario"), "--out", str(runs["example2"])]
    assert main(["run"] + args) == 0
    for name, full in runs.items():
        for command in sorted(_SUBCOMMAND_FLAGS.keys() - {"run"}):
            out = tmp_path / f"{name}_{command}"
            args = ["--scenario", scenario_path(f"{name}.scenario"), "--out", str(out)]
            code = main([command] + args)
            if (name, command) == ("example1", "triangle"):  # example1 has no triangle_modes
                assert code == 3 and not out.exists()
                continue
            assert code == 0
            written = {q.relative_to(out) for q in out.rglob("*") if q.is_file()}
            shared = {rel for rel in written if (full / rel).is_file()} - {Path("manifest.json")}
            # example2's run checks no certificates: its certify shares no file
            assert bool(shared) != ((name, command) == ("example2", "certify"))
            for rel in shared:
                assert (out / rel).read_bytes() == (full / rel).read_bytes(), rel


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
        ("plot_data = true", "plot_data = true\nbox = -1e308 1e308"),
        ("plot_data = true", "tube = true\ntube_from = 1\ntube_to = 0\ntube_times = 2 1"),
        ("plot_data = true", "plot_data = true\nbox = -3 0 3"),
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
        "box_width_overflows",
        "decreasing_tube_times",
        "box_of_three",
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
        (EXAMPLE1, "T = 1.43\nx0 = 0 1", "T = 1.43\nperiod = 3\nx0 = 0 1", "period does not"),
        (EXAMPLE1, "T = 1.43\nx0 = -0.5", "T = 1.43\ntimes = 9 10\nx0 = -0.5", "times does not"),
        (EXAMPLE2, "times =\n", "times =\nT = 5\n", "T does not apply to kind = explicit"),
        (EXAMPLE2, "times =\n", "times =\ndwell = 7\n", "dwell does not"),
        (EXAMPLE1, "T = 1.43\nx0 = 0 1", "T = 1.43\ndwell = 0.1\nx0 = 0 1", "T or dwell, not both"),
        (
            EXAMPLE1,
            "T = 1.43\nx0 = 0 1\nhorizon = 2.86",
            "T = 20\nt0 = 1e13\nx0 = 0 1\nhorizon = 10000000000040",
            "signal 'signal': times this large need step > 0.0156",
        ),
        (EXAMPLE1, "T = 1.43\nx0 = 0 1", "x0 = 0 1", "[signal]: T or dwell is required"),
        (
            EXAMPLE1,
            "A = -1 -1 1 -1\nfamily = u 1\nu_values = 1 0 -1",
            "[subsystem.s]\nb = 1 1",
            "[subsystem.s]: A is required",
        ),
        (
            EXAMPLE1,
            "u_values = 1 0 -1",
            "u_values = 1 0 -1\n[subsystem.s]\nA = -1 0 0 -1",
            "[subsystem.s]: b is required",
        ),
        (EXAMPLE2, "triangle_modes = 1 0 -1", "triangle_modes = 1 0", "exactly three labels"),
        (
            EXAMPLE1,
            "[signal.cycle]",
            "[signal.x/../../../escaped]",
            "signal name 'x/../../../escaped' holds a comma",
        ),
        (EXAMPLE1, "[signal.cycle]", "[signal.a/b]", "signal name 'a/b' holds a comma"),
        (EXAMPLE2, "[system]", "[DEFAULT]\nstep = 0.01\n\n[system]", "unknown section [DEFAULT]"),
        (EXAMPLE2, "[system]", "[DEFAULT]\n\n[system]", "unknown section [DEFAULT]"),
        (
            EXAMPLE1,
            "[signal.cycle]",
            f"[signal.{'s' * 300}]",
            "signal name of 300 UTF-8 bytes, over 200",
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
        "period_of_dwell_signal",
        "times_of_periodic_signal",
        "T_of_explicit_signal",
        "dwell_of_explicit_signal",
        "T_and_dwell",
        "step_below_the_time_resolution",
        "no_T_or_dwell",
        "subsystem_without_A",
        "subsystem_without_b",
        "two_triangle_modes",
        "signal_name_escaping_the_output",
        "signal_name_with_a_slash",
        "default_section_with_a_key",
        "empty_default_section",
        "300_byte_signal_name",
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


OVERFLOWING_MU_TILDE = """
[system]

[subsystem.a]
A = -1 0 0 -1
b = 1 0

[subsystem.b]
A = -5 0 0 -5
b = 0 5

[signal]
kind = periodic
initial_mode = a
modes = b
T = 50
x0 = 0 0
horizon = 400

[analysis]
eps = 0.05
convergence = true
i_max = 7

[numeric]
step = 0.01
"""


HUGE_X0 = EXAMPLE1.replace("x0 = 0 1", "x0 = 1e300 1e300")
TINY_EPS = EXAMPLE1.replace("eps = 0.05", "eps = 1e-320")


@pytest.mark.parametrize(
    "command, text, message, existing",
    [
        ("run", OVERFLOWING_MU_TILDE, "non-finite value in convergence_report.json", False),
        # V overflows along the trajectory: caught at the simulate stage, before trapping
        ("verify", HUGE_X0, "non-finite value in trajectory_signal_0.csv", True),
        ("run", HUGE_X0, "non-finite value in trajectory_signal_0.csv", False),
        (
            "certify",
            EXAMPLE1.replace("samples = 10000", "samples = 200").replace(
                "plot_data = true", "plot_data = true\nbox = -1e200 1e200"
            ),
            "non-finite V, bound or derivative sampled for mode 1",
            False,
        ),
        # mu = (1 + d / sqrt(eps))^2 overflows to inf rather than raising
        ("dwell", TINY_EPS, "non-finite value in dwell_table.json", False),
        ("run", TINY_EPS, "non-finite value in dwell_table.json", False),
    ],
    ids=["mu_tilde", "v_at_switches", "v_active", "certificate_samples", "tiny_eps_dwell", "tiny_eps_run"],
)
def test_nonfinite_values_are_numeric_failures(tmp_path, capsys, command, text, message, existing):
    p = tmp_path / "huge.scenario"
    p.write_text(text)
    out = tmp_path / "o"
    if existing:
        out.mkdir()
        (out / "sentinel").write_bytes(b"kept\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would be more stderr lines
        code = main([command, "--scenario", str(p), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    # nothing is written before every stage has run
    if existing:
        assert [q.name for q in out.iterdir()] == ["sentinel"]
        assert (out / "sentinel").read_bytes() == b"kept\n"
    else:
        assert not out.exists()


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


def test_eps0_without_a_crossing_is_a_warning(tmp_path):
    # triangle_modes = a b a: the gap stays negative up to the search grid's end
    scenario = Path(__file__).resolve().parents[1] / "tools" / "parser_paths.scenario"
    out = tmp_path / "o"
    assert main(["triangle", "--scenario", str(scenario), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == ["triangle: geometry outside the eps0 search domain"]
    assert json.loads((out / "triangle_report.json").read_text())["eps0"] is None


@pytest.mark.parametrize(
    "flag,value", [("--seed", "-5"), ("--eps", "0"), ("--step", "-1e-3")]
)
def test_out_of_range_overrides_are_input_errors(tmp_path, capsys, flag, value):
    args = ["run", "--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path)]
    assert main(args + [f"{flag}={value}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def cold_env() -> dict:
    """This environment, with the package's source directory first on PYTHONPATH."""
    src = str(resources.files("switchdwell").parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def cold_run(args: list[str], modules: list[str]) -> str:
    """``main(args)`` in a fresh interpreter: its status and whether each module got loaded."""
    code = (
        "import sys\n"
        "from switchdwell.cli import main\n"
        f"status = main({args!r})\n"
        f"print(status, *(m in sys.modules for m in {modules!r}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cold_env(), check=True
    )
    return proc.stdout.splitlines()[-1]


def test_certify_does_not_import_scipy_stats(tmp_path):
    args = ["certify", "--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path)]
    assert cold_run(args, ["scipy.stats"]) == "0 False"


def test_run_does_not_import_numpy_random(tmp_path):
    # certify shifts its Halton points with the standard library's random
    args = ["run", "--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path)]
    assert cold_run(args, ["numpy.random"]) == "0 False"


def test_run_does_not_import_numpy_ma_or_fractions(tmp_path):
    # numpy.ma loads lazily (np.unique pulls it in) and costs a cold run ~20 ms
    args = ["run", "--scenario", scenario_path("example2.scenario"), "--out", str(tmp_path)]
    assert cold_run(args, ["numpy.ma", "fractions"]) == "0 False False"


LABELED = """
[system]
A = -1 0 0 -1

[subsystem.{label}]
b = 0 0

[subsystem.z]
b = 1 0

[signal]
kind = from_dwell
initial_mode = {label}
modes = z
T = 0.004
x0 = 0 1
horizon = 0.01

[analysis]
eps = 0.05
plot_data = true
"""


@pytest.mark.parametrize(
    "label", ["a,b", 'a"b', "a b", "a\x00b", "a\x1bb", "../b", "a\\b", "", "m" * 300],
    ids=["comma", "quote", "space", "nul", "escape", "slash", "backslash", "empty", "300_bytes"],
)
def test_csv_unsafe_labels_are_input_errors(tmp_path, capsys, label):
    p = tmp_path / "bad.scenario"
    p.write_text(LABELED.format(label=label), encoding="utf-8")
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: [subsystem.") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    if label.split() == [label]:  # u_values splits at whitespace
        family = "[system]\nA = -1 0 0 -1\nfamily = 0 1\nu_values = 7 {}\n[analysis]\neps = 0.05\n"
        with pytest.raises(ValidationError, match="u_values: mode label"):
            parse_scenario(family.format(label) + "certify = true\n")


def test_non_ascii_labels_are_written_as_utf8(tmp_path):
    p = tmp_path / "alpha.scenario"
    p.write_text(LABELED.format(label="α"), encoding="utf-8")
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 0
    plot = tmp_path / "o" / "plot_signal_0"
    rows = (plot / "trajectory.csv").read_bytes().splitlines()
    assert rows[1] == b"0,0,1,\xce\xb1,1"
    assert (plot / "switch_points.csv").read_bytes().splitlines()[1].endswith(b",\xce\xb1,z")
    assert (plot / "region_α.csv").is_file()


def test_undecodable_scenario_is_input_error(tmp_path, capsys):
    p = tmp_path / "latin1.scenario"
    p.write_bytes(LABELED.format(label="\xe9").encode("latin-1"))
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 3
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

    def test_each_buffer_hashed_once_and_every_directory_made(self, tmp_path, monkeypatch):
        made, log = [], tmp_path / "hashed"
        mkdir, sha256 = Path.mkdir, hashlib.sha256

        def counted_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        def counted_sha256(*data):
            # one line appended per call, so a forked writer's calls count too
            with open(log, "a") as f:
                f.write(f"{len(data)}\n")
            return sha256(*data)

        monkeypatch.setattr(Path, "mkdir", counted_mkdir)
        monkeypatch.setattr(cli.hashlib, "sha256", counted_sha256)
        out = tmp_path / "o"
        code = main(["run", "--scenario", scenario_path("example1.scenario"), "--out", str(out)])
        assert code == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        dirs = {out} | {(out / e["path"]).parent for e in files}
        assert set(made) == dirs and len(dirs) == 19
        # the trajectory CSVs and the region CSVs are each one content at many
        # paths, streamed into one hash object; every other content has its
        # own, and the manifest is one more
        hashed = log.read_text().split()
        assert len(hashed) == len({e["sha256"] for e in files}) + 1 < len(files)
        assert set(hashed) == {"0"}  # each is fed block by block

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
            v = d[0] * d[0] + d[1] * d[1]  # V's fixed order: column 1, then column 2
            cells = [t, *x]
            lines.append(",".join(f"{c:.17g}" for c in cells) + f",{m},{float(v):.17g}")
        csv = _trajectory_csv(traj._plan, system, traj.states[0])
        assert b"".join(csv) == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("prefix", ["", "m" * 200], ids=["demo_labels", "201_byte_labels"])
    def test_a_long_trajectory_csv_streams_in_blocks(self, system, prefix):
        def label(u):
            return f"{prefix}{u}" if prefix else u

        system = SwitchedSystem(tuple(
            make_affine_subsystem(*sub.affine, label(sub.label)) for sub in system.subsystems
        ))
        sig = signal_from_dwell(label(1), [label(0), label(-1), label(0)], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.4, -0.3]), 200.0, 1e-3)
        assert len(traj.times) == 200_001
        tracemalloc.start()
        try:
            size = sum(map(len, _trajectory_csv(traj._plan, system, traj.states[0])))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # joined whole, rendering the 16 MB file of demo labels peaked near
        # 39 MB; refilled and rendered a block at a time, it peaks at 0.8 MB,
        # and at 1.1 MB with 201-byte labels, each written once per run (2.5
        # MB when 2048-row blocks gathered one label cell per row)
        assert size > (15e6 if not prefix else 55e6) and peak < 1.5e6

    def test_a_long_trajectory_csv_takes_v_one_block_at_a_time(self, system):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.4, -0.3]), 200.0, 1e-3)
        assert len(traj.times) == 200_001
        streamed = hashlib.sha256()
        tracemalloc.start()
        try:
            for block in _trajectory_csv(traj._plan, system, traj.states[0]):
                streamed.update(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # V for every row is 1.6 MB alone, and taking it whole before the
        # first block peaked at 6.4 MB; a block at a time, 0.9 MB
        assert peak < 2e6
        plan = traj._plan
        whole = csv_blocks("t,x1,x2,mode,V_active\n", traj.times, traj.states,
                           Runs(plan.modes, plan.lens), _v_active(plan, system, traj.states))
        assert streamed.digest() == hashlib.sha256(b"".join(whole)).digest()

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


def _callable_mode(label, field):
    """A 2-D mode given by its field alone, with V = |x|^2."""
    return Subsystem(
        label=label, field=field, equilibrium=np.zeros(2), decay_rate=1.0,
        alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lambda x: float(x @ x),
    )


def _window_case(system, kind):
    """(system, signal) of affine, callable or mixed modes whose intervals end in partial steps."""
    if kind == "mixed":
        c = _callable_mode("c", lambda x: 0.1 * np.sin(x[::-1]) - x)
        system = SwitchedSystem(system.subsystems + (c,))
        return system, signal_from_dwell(1, ["c", 0, "c", -1], [0.4013, 0.25, 0.3337, 0.12, 0.3],
                                         periodic=True)
    if kind == "callable":
        system = SwitchedSystem(tuple(dataclasses.replace(sub, affine=None)
                                      for sub in system.subsystems))
    return system, signal_from_dwell(1, [0, -1, 0], [0.4013, 0.25, 0.3337, 0.12], periodic=True)


class TestWindows:
    @pytest.mark.parametrize("block", [7, 255, 257])
    @pytest.mark.parametrize("kind", ["affine", "callable", "mixed"])
    def test_a_windowed_pass_equals_the_whole_trajectory(self, system, eps, monkeypatch,
                                                         kind, block):
        system, sig = _window_case(system, kind)
        x0 = np.array([0.7, -0.4])
        traj = simulate_switched(system, sig, x0, 3.0, 1e-3)
        plan = traj._plan
        header = "t,x1,x2,mode,V_active\n"
        whole = csv_blocks(header, traj.times, traj.states, Runs(plan.modes, plan.lens),
                           _v_active(plan, system, traj.states))
        expected = b"".join(whole)
        # windows of 7 rows split every seed-block chunk, 255 and 257 straddle
        # chunks of 256 steps, partial steps and interval ends
        monkeypatch.setattr(_csv, "_BLOCK", block)
        assert b"".join(_trajectory_csv(plan, system, x0)) == expected
        scan = _stream.scan(system, sig, x0, 3.0, 1e-3, _csv._BLOCK, "t.csv", w=True)
        assert scan.plan is plan and scan.x0.tobytes() == x0.tobytes()
        assert scan.switch_states.tobytes() == traj.states[plan.los[1:]].tobytes()
        assert scan.v_exit.tobytes() == _v_exit(traj, system).tobytes()
        assert repr(scan.w_verdicts) == repr(w_monitor(traj, system, sig))
        trapping = sim._trapping(plan, scan.v_exit, eps)
        assert repr(trapping) == repr(verify_trapping(traj, system, sig, eps))

    @pytest.mark.parametrize("block", [257, 2048])
    def test_a_state_non_finite_in_a_late_window_exits_4_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, block
    ):
        # x' = 1000 x from t = 3 overflows near t = 3.71, row 3710 of 4001
        up = dataclasses.replace(_callable_mode("up", lambda x: 1000.0 * x),
                                 affine=(1000.0 * np.eye(2), np.zeros(2)))
        parse = cli.parse_scenario

        def with_up(text, **kwargs):
            s = parse(text, **kwargs)
            return dataclasses.replace(s, system=SwitchedSystem((s.system["a"], up)))

        p = tmp_path / "up.scenario"
        p.write_text(
            "[system]\nA = -1 -1 1 -1\n[subsystem.a]\nb = 0 1\n[subsystem.up]\nb = 0 0\n"
            "[signal]\nkind = from_dwell\ninitial_mode = a\nmodes = up\nT = 3\nx0 = 0 1\n"
            "horizon = 4\n"
            "[analysis]\neps = 0.05\ntrapping = true\nplot_data = true\n"
        )
        monkeypatch.setattr(cli, "parse_scenario", with_up)
        monkeypatch.setattr(_csv, "_BLOCK", block)
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(p), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "numeric failure: non-finite state while integrating mode 'up'\n"
        assert captured.out == "" and not out.exists()
        scenario = with_up(p.read_text())
        with np.errstate(all="ignore"), pytest.raises(NonfiniteState, match="mode 'up'"):
            _stream.scan(scenario.system, scenario.signals["signal"].signal,
                         np.array([0.0, 1.0]), 4.0, 1e-3, block, "t.csv")


def _periodic_demo(horizon):
    """Example1's system on its cycle signal alone, to ``horizon``, checked and convergent."""
    return parse_scenario(
        "[system]\nA = -1 -1 1 -1\nfamily = u 1\nu_values = 1 0 -1\n"
        "[signal]\nkind = periodic\ninitial_mode = 1\nmodes = 0 -1 0\nT = 1.43\n"
        f"x0 = -0.5 0.5\nhorizon = {horizon}\n"
        "[analysis]\neps = 0.05\ntrapping = true\nconvergence = true\ni_max = 3\n"
    )


def test_memory_does_not_grow_with_the_horizon(capsys):
    peaks = []
    for horizon, samples in ((25, 25_001), (200, 200_001)):
        scenario = _periodic_demo(horizon)
        tracemalloc.start()
        try:
            _, _, files = cli.analyse(scenario)
            for _, blocks, _ in files:
                for _ in blocks:
                    pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert files[0][0] == ("trajectory_signal_0.csv",) and files[0][2] == samples
    # 175 000 more samples: states, times and W's factors would be 12.7 MB
    assert peaks[1] - peaks[0] < 0.5e6


def test_the_written_lines_follow_the_emission(tmp_path, capsys):
    scenario = Path(__file__).parents[1] / "tools" / "tube_convergence.scenario"
    args = ["run", "--scenario", str(scenario)]
    assert main(args + ["--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["tube: written", "plot-data: written"]
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(args + ["--out", str(blocker)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot create output directory")
    assert captured.out.splitlines() == lines[:-2] and "written" not in captured.out


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


def tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="emit forks only on Linux with two CPUs or more",
)
class TestTwoProcesses:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids ``os.fork`` returned in this process: one per two-process emission."""
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(cli.os, "fork", counted_fork)
        return pids

    @pytest.mark.parametrize("name, n", [("example1.scenario", 1), ("example2.scenario", 0)])
    def test_only_a_large_output_is_split(self, tmp_path, forks, name, n):
        assert main(["run", "--scenario", scenario_path(name), "--out", str(tmp_path)]) == 0
        assert len(forks) == n

    def test_two_process_and_one_process_trees_are_the_same_bytes(
        self, tmp_path, monkeypatch, forks
    ):
        trees = []
        for fork_rows in (0, 10**12):
            monkeypatch.setattr(cli, "FORK_ROWS", fork_rows)
            out = tmp_path / str(fork_rows)
            args = ["run", "--scenario", scenario_path("example1.scenario"), "--out", str(out)]
            assert main(args) == 0
            trees.append(tree(out))
        assert len(forks) == 1
        assert trees[0] == trees[1] and len(trees[0]) == 112

    @pytest.mark.parametrize("share", [0, 1], ids=["this_process", "child"])
    def test_a_write_failure_in_either_share_is_one_input_error(
        self, tmp_path, capsys, monkeypatch, forks, share
    ):
        monkeypatch.setattr(cli, "FORK_ROWS", 0)
        scenario = scenario_path("example1.scenario")
        _, _, files = cli.analyse(parse_scenario(Path(scenario).read_text()))
        # _shares' second share is the child's; a directory where its file goes
        path = cli._shares(files)[share][0][0][0]
        out = tmp_path / "o"
        (out / path).mkdir(parents=True)
        capsys.readouterr()
        assert main(["run", "--scenario", scenario, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and err.count("\n") == 1
        assert path in err and len(forks) == 1
        assert not (out / "manifest.json").exists()

    def test_a_child_ending_without_a_reply_is_an_input_error(
        self, tmp_path, capsys, monkeypatch, forks
    ):
        parent, write = os.getpid(), cli._write

        def interrupted_in_the_child(out, files):
            if os.getpid() != parent:
                raise KeyboardInterrupt
            return write(out, files)

        monkeypatch.setattr(cli, "_write", interrupted_in_the_child)
        args = ["run", "--scenario", scenario_path("example1.scenario"), "--out", str(tmp_path)]
        assert main(args) == 3
        assert capsys.readouterr().err == "error: the output writer process ended with status 1\n"
        assert len(forks) == 1


def test_main_leaves_the_collector_unfrozen(example1_run):
    # gc.freeze() is the entry's, for a process that ends when main returns
    assert gc.get_freeze_count() == 0


def test_a_cold_run_exits_with_the_status_of_main(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text(BAD_DWELL)
    for scenario, status in ((scenario_path("example1.scenario"), 0), (str(bad), 2)):
        args = ["run", "--scenario", scenario, "--out", str(tmp_path / str(status))]
        proc = subprocess.run(
            [sys.executable, "-m", "switchdwell.cli", *args],
            capture_output=True, text=True, env=cold_env(),
        )
        assert (proc.returncode, proc.stderr) == (status, "")


def test_the_console_script_is_the_freezing_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"switchdwell": "switchdwell.cli:entry"}
