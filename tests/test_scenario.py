import hashlib
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdwell import region_boundary_points
from switchdwell.cli import _SUBCOMMAND_FLAGS, main
from switchdwell.errors import ParseError, SwitchDwellError, ValidationError
from switchdwell.scenario import Scenario, parse_scenario

MINIMAL = """
[system]
A = -1 -1 1 -1
family = u 1
u_values = 1 0 -1

[signal]
kind = from_dwell
initial_mode = 0
modes = -1
T = 1.43
x0 = 0 1
horizon = 2.86

[analysis]
eps = 0.05
trapping = true
"""


def bundled(name: str) -> str:
    return (resources.files("switchdwell") / "scenarios" / name).read_text()


class TestParsing:
    def test_minimal_document(self):
        s = parse_scenario(MINIMAL)
        assert s.eps == 0.05
        assert s.system.labels == (1, 0, -1)
        assert s.analyses == {"trapping": True}
        spec = s.signals["signal"]
        assert spec.signal.switch_times == (1.43,)
        assert spec.horizon == 2.86
        np.testing.assert_array_equal(spec.x0[0], [0.0, 1.0])

    def test_family_equilibria(self):
        s = parse_scenario(MINIMAL)
        np.testing.assert_allclose(s.system[1].equilibrium, [0.0, 1.0])
        np.testing.assert_allclose(s.system[0].equilibrium, [-0.5, 0.5])
        np.testing.assert_allclose(s.system[-1].equilibrium, [-1.0, 0.0])

    def test_explicit_subsystem_sections(self):
        text = """
[system]
[subsystem.left]
A = -1 0 0 -1
b = 1 0
[subsystem.right]
A = -2 0 0 -2
b = 0 2
[analysis]
eps = 0.1
certify = true
"""
        s = parse_scenario(text)
        assert s.system.labels == ("left", "right")
        np.testing.assert_allclose(s.system["left"].equilibrium, [1.0, 0.0])
        np.testing.assert_allclose(s.system["right"].equilibrium, [0.0, 1.0])

    def test_bundled_scenarios_parse(self):
        s1 = parse_scenario(bundled("example1.scenario"))
        assert set(s1.signals) == {"signal", "cycle"}
        assert s1.signals["cycle"].signal.period == pytest.approx(5.72)
        primary, cycle = s1.signals["signal"], s1.signals["cycle"]
        # the signal's own x0, then the 16 boundary starts of region 1
        boundary = region_boundary_points(s1.system[1], 0.05, 16)
        np.testing.assert_array_equal(primary.x0, [[0.0, 1.0], *boundary])
        np.testing.assert_array_equal(cycle.x0, [[-0.5, 0.5]])
        assert (primary.horizon, cycle.horizon) == (2.86, 22.88)
        assert s1.transitions == [(1, 0), (0, -1)]
        s2 = parse_scenario(bundled("example2.scenario"))
        assert s2.triangle_modes == (1, 0, -1)
        assert s2.signals["signal"].signal.segments == ()

    def test_numeric_defaults(self):
        s = parse_scenario(MINIMAL)
        assert (s.step, s.seed, s.samples) == (1e-3, 42, 10_000)

    def test_overrides_apply_before_checks(self):
        text = MINIMAL.replace("eps = 0.05", "boundary_points = 4\nstart_region = 1")
        with pytest.raises(ValidationError, match="eps is required"):
            parse_scenario(text)
        s = parse_scenario(text, step=0.01, eps=0.25, seed=7, analyses={"simulate": True})
        assert (s.step, s.eps, s.seed, s.analyses) == (0.01, 0.25, 7, {"simulate": True})
        # the boundary starts sit on the overridden level set
        np.testing.assert_allclose(s.system[1].v_batch(np.array(s.signals["signal"].x0[1:])), 0.25)

    def test_starts_and_horizon_fall_back_to_analysis(self):
        text = MINIMAL.replace("x0 = 0 1\nhorizon = 2.86\n", "") + "x0 = 1 0; 0 0\nhorizon = 3\n"
        spec = parse_scenario(text).signals["signal"]
        np.testing.assert_array_equal(spec.x0, [[1.0, 0.0], [0.0, 0.0]])
        assert spec.horizon == 3.0

    def test_dwell_lists(self):
        listed = MINIMAL.replace("T = 1.43", "dwell = 1.43")
        assert parse_scenario(listed).signals["signal"].signal.switch_times == (1.43,)
        periodic = listed.replace("from_dwell", "periodic").replace("dwell = 1.43", "dwell = 1 0.5")
        signal = parse_scenario(periodic).signals["signal"].signal
        assert (signal.segments, signal.period) == (((1.0, -1),), 1.5)

    def test_default_transitions_follow_the_primary_signal(self):
        s = parse_scenario(MINIMAL.replace("trapping", "dwell_table"))
        assert s.transitions == [(0, -1)]
        periodic = MINIMAL.replace("from_dwell", "periodic").replace("modes = -1", "modes = -1 1")
        assert parse_scenario(periodic).transitions == [(0, -1), (-1, 1), (1, 0)]


class TestRejection:
    def test_empty_document(self):
        with pytest.raises(ValidationError):
            parse_scenario("")

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_scenario(MINIMAL + "\n[numeric]\nstride = 2\n")

    def test_unknown_section(self):
        with pytest.raises(ValidationError, match="unknown section"):
            parse_scenario(MINIMAL + "\n[plotting]\ncolor = red\n")

    def test_missing_eps(self):
        text = MINIMAL.replace("eps = 0.05", "")
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_no_analysis_requested(self):
        text = MINIMAL.replace("trapping = true", "")
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_unknown_mode_label(self):
        text = MINIMAL.replace("initial_mode = 0", "initial_mode = 9")
        with pytest.raises(ValidationError, match="unknown mode label"):
            parse_scenario(text)

    def test_times_modes_length_mismatch(self):
        text = MINIMAL.replace("kind = from_dwell", "kind = explicit").replace(
            "T = 1.43", "times = 1.0 2.0"
        )
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_unknown_signal_kind(self):
        text = MINIMAL.replace("from_dwell", "random")
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_bad_boolean(self):
        text = MINIMAL.replace("trapping = true", "trapping = maybe")
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_scenario("key_without_section = 1\n")


class TestExplicitSignal:
    def wrap(self, section: str) -> str:
        return (
            "[system]\nA = -1 -1 1 -1\nfamily = u 1\nu_values = 1 0 -1\n"
            + section
            + "[analysis]\neps = 0.05\nsimulate = true\nhorizon = 1\nx0 = 0 1\n"
        )

    def test_aperiodic_section(self):
        section = (
            "[signal]\nkind = explicit\nt0 = 0\ninitial_mode = 1\n"
            "times = 1.25 2.0000000000000004\nmodes = 0 -1\n"
        )
        parsed = parse_scenario(self.wrap(section)).signals["signal"].signal
        assert parsed.initial_mode == 1
        assert parsed.segments == ((1.25, 0), (2.0000000000000004, -1))
        assert parsed.period is None

    def test_periodic_section(self):
        section = (
            "[signal]\nkind = explicit\nt0 = 0\ninitial_mode = 1\n"
            "times = 1.4299999999999999\nmodes = 0\nperiod = 2.8599999999999999\n"
        )
        parsed = parse_scenario(self.wrap(section)).signals["signal"].signal
        assert parsed.segments == ((1.43, 0),)
        assert parsed.period == 2.86
        assert parsed.switches_per_period == 2  # the wrap back to 1 counts


# tokens that hit the number, label, list and boolean parsers at their edges
_TOKENS = st.sampled_from(
    ["1e300", "1 1 -1", "", "0", "-1", "nan", "1e-300", "0 1 2", "periodic", "1:9", "1",
     "2", "0.05", "1.43", "-1e308", "inf", "abc", "u", "7", "0 1", "0 1; 1 0", "1:0 0:-1",
     "1 0 -1", "true", "false", "explicit", "from_dwell", "99999999999999999999"]
)
# [analysis] keys that neither bundled scenario sets
_EXTRA_KEYS = st.sampled_from(
    ["x0", "horizon", "i_max", "tube", "tube_from", "tube_to", "tube_times",
     "tube_boundary_count", "convergence", "simulate", "box"]
)
# [signal] keys, set in the primary signal in place of any line of the same key
_SIGNAL_KEYS = st.sampled_from(["period", "times", "modes", "t0"])


@st.composite
def _scenario_text(draw, samples=None):
    """A bundled scenario with a few values replaced or emptied and keys added.

    With ``samples``, that is the scenario's ``[numeric] samples`` before any change.
    """
    lines = bundled(draw(st.sampled_from(["example1.scenario", "example2.scenario"])))
    if samples is not None:
        lines = lines.replace("samples = 10000\n", "")
        lines = lines.replace("[numeric]\n", f"[numeric]\nsamples = {samples}\n")
    lines = lines.splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    for i in draw(st.lists(st.sampled_from(keyed), max_size=3)):
        lines[i] = lines[i].split("=", 1)[0] + "= " + draw(_TOKENS)
    for i in draw(st.lists(st.sampled_from(keyed), max_size=2)):
        lines[i] = ""
    at = lines.index("[analysis]") + 1
    keys = sorted(draw(st.sets(_EXTRA_KEYS, max_size=2)))  # sorted: no hash-seed order
    lines[at:at] = [f"{k} = {draw(_TOKENS)}" for k in keys]
    keys = sorted(draw(st.sets(_SIGNAL_KEYS, max_size=2)))
    at = lines.index("[signal]") + 1
    end = next(i for i in range(at, len(lines)) if lines[i].startswith("["))
    kept = [line for line in lines[at:end] if line.split("=", 1)[0].strip() not in keys]
    lines[at:end] = [f"{k} = {draw(_TOKENS)}" for k in keys] + kept
    return "\n".join(lines) + "\n"


@given(
    text=_scenario_text(),
    step=st.none() | st.floats(allow_nan=True, allow_infinity=True),
    eps=st.none() | st.floats(allow_nan=True, allow_infinity=True),
    seed=st.none() | st.integers(-(2**70), 2**70),
    analyses=st.sampled_from(list(_SUBCOMMAND_FLAGS.values())),
)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_any_text_is_a_scenario_or_an_input_error(text, step, eps, seed, analyses):
    try:
        s = parse_scenario(text, step=step, eps=eps, seed=seed, analyses=analyses)
    except SwitchDwellError:
        return
    assert isinstance(s, Scenario)


@given(
    text=_scenario_text(samples=64),
    command=st.sampled_from(list(_SUBCOMMAND_FLAGS)),
    eps=st.none() | st.floats(1e-300, 1e300),  # out-of-range overrides: the parse property
    # a start far enough out overflows V or a later report
    x0=st.sampled_from(["0 1", "1e150 1e150", "1e154 1e154", "1e300 1e300"]),
)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_any_text_ends_in_a_whole_tree_or_none(text, command, eps, x0):
    # a coarse step keeps each run to a few hundred RK4 samples per start
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "s.scenario", Path(tmp) / "o"
        path.write_text(text.replace("x0 = 0 1\n", f"x0 = {x0}\n", 1))
        args = [command, "--scenario", str(path), "--out", str(out), "--step=2.5e-2"]
        code = main(args + ([] if eps is None else [f"--eps={eps!r}"]))
        assert code in (0, 2, 3, 4)
        if code in (3, 4):
            assert not out.exists()
            return
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == code
        listed = {e["path"]: e["sha256"] for e in manifest["files"]}
        on_disk = {str(q.relative_to(out)): q for q in out.rglob("*") if q.is_file()}
        assert set(on_disk) == set(listed) | {"manifest.json"}
        for rel, q in on_disk.items():
            data = q.read_bytes()
            if rel != "manifest.json":
                assert hashlib.sha256(data).hexdigest() == listed[rel]
            if rel.endswith(".json"):
                json.loads(data, parse_constant=pytest.fail)
            else:
                assert not {b"inf", b"-inf", b"nan"} & set(data.replace(b"\n", b",").split(b","))
