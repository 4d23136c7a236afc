import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdwell import (
    ClassKFn,
    SwitchingSignal,
    make_affine_subsystem,
    signal_from_dwell,
    validate_dwell,
)
from switchdwell.errors import (
    DimensionMismatch,
    EmptyTransitions,
    NonpositiveDwell,
    NotContracting,
    SingularMatrix,
    UnknownLabel,
)


class TestClassKFn:
    def test_eval_and_inverse(self):
        f = ClassKFn(c=2.0, p=3.0)
        assert f.eval(2.0) == pytest.approx(16.0)
        assert f.inverse(16.0) == pytest.approx(2.0)

    @given(
        c=st.floats(0.1, 10.0),
        p=st.floats(0.5, 4.0),
        s=st.floats(1e-6, 1e3),
    )
    @settings(max_examples=50)
    def test_inverse_roundtrip(self, c, p, s):
        f = ClassKFn(c=c, p=p)
        assert f.inverse(f.eval(s)) == pytest.approx(s, rel=1e-9)

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_parameters(self, c, p):
        with pytest.raises(ValueError):
            ClassKFn(c=c, p=p)

    def test_domain_errors(self):
        f = ClassKFn(c=1.0, p=2.0)
        with pytest.raises(ValueError):
            f.eval(-1.0)
        with pytest.raises(ValueError):
            f.inverse(-1.0)


class TestAffineSubsystem:
    def test_demo_equilibria(self, system):
        assert np.allclose(system[1].equilibrium, [0.0, 1.0])
        assert np.allclose(system[0].equilibrium, [-0.5, 0.5])
        assert np.allclose(system[-1].equilibrium, [-1.0, 0.0])

    def test_decay_rate_is_two(self, system):
        # symmetric part of A is -I, so -2 * lambda_max = 2
        for sub in system.subsystems:
            assert sub.decay_rate == pytest.approx(2.0)

    def test_lyapunov_vanishes_at_equilibrium(self, system):
        for sub in system.subsystems:
            assert sub.lyapunov(sub.equilibrium) == 0.0

    def test_rejects_noncontracting_matrix(self):
        with pytest.raises(NotContracting):
            make_affine_subsystem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), "m")

    def test_singular_in_floating_point(self):
        # symmetric with det = a * fl(1/a) - 1 > 0 exactly, so contracting and
        # invertible, but LU elimination cancels the second pivot to 0.0
        a = 1.3022701777491792
        A = np.array([[-a, 1.0], [1.0, -1.0 / a]])
        assert np.linalg.eigvalsh(A)[-1] < 0
        with pytest.raises(SingularMatrix, match="A of mode 'm' is not invertible"):
            make_affine_subsystem(A, np.ones(2), "m")

    def test_rejects_nonfinite_equilibrium(self):
        # a subnormal A passes the contraction test, but -A^{-1} b overflows
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="equilibrium of mode 'm' must be finite"
        ):
            make_affine_subsystem(-1e-320 * np.eye(2), np.ones(2), "m")

    def test_rejects_mismatched_b(self, demo_A):
        with pytest.raises(DimensionMismatch):
            make_affine_subsystem(demo_A, np.zeros(3), "m")

    def test_check_dimension(self, system):
        with pytest.raises(DimensionMismatch):
            system[0].check_dimension(np.zeros(3))


class TestSwitchedSystem:
    def test_label_lookup(self, system):
        assert system[1].label == 1
        assert 0 in system and 7 not in system
        with pytest.raises(UnknownLabel):
            system[7]

    def test_labels_in_declaration_order(self, system):
        assert system.labels == (1, 0, -1)
        assert system.dimension == 2


class TestSwitchingSignal:
    def test_mode_at_is_right_continuous(self):
        sig = SwitchingSignal(t0=0.0, initial_mode="a", segments=((1.0, "b"), (2.0, "c")))
        assert sig.mode_at(0.0) == "a"
        assert sig.mode_at(0.999) == "a"
        assert sig.mode_at(1.0) == "b"
        assert sig.mode_at(2.0) == "c"
        assert sig.mode_at(100.0) == "c"

    def test_mode_at_before_start_raises(self):
        sig = SwitchingSignal(t0=1.0, initial_mode="a")
        with pytest.raises(ValueError):
            sig.mode_at(0.5)

    def test_periodic_mode_wraps(self):
        sig = SwitchingSignal(
            t0=0.0, initial_mode="a", segments=((1.0, "b"),), period=2.0
        )
        assert sig.mode_at(0.5) == "a"
        assert sig.mode_at(1.5) == "b"
        assert sig.mode_at(2.5) == "a"
        assert sig.mode_at(3.5) == "b"

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            SwitchingSignal(t0=0.0, initial_mode="a", segments=((1.0, "b"), (1.0, "c")))
        with pytest.raises(ValueError):
            SwitchingSignal(t0=2.0, initial_mode="a", segments=((1.0, "b"),))

    def test_rejects_switch_outside_period(self):
        with pytest.raises(ValueError):
            SwitchingSignal(
                t0=0.0, initial_mode="a", segments=((3.0, "b"),), period=2.0
            )

    def test_switches_until_aperiodic(self):
        sig = SwitchingSignal(t0=0.0, initial_mode="a", segments=((1.0, "b"), (2.0, "c")))
        assert sig.switches_until(1.5) == [(1.0, "a", "b")]
        assert sig.switches_until(5.0) == [(1.0, "a", "b"), (2.0, "b", "c")]

    def test_switches_until_periodic_includes_wrap(self):
        sig = SwitchingSignal(
            t0=0.0, initial_mode="a", segments=((1.0, "b"),), period=2.0
        )
        got = sig.switches_until(4.0)
        assert got == [
            (1.0, "a", "b"),
            (2.0, "b", "a"),
            (3.0, "a", "b"),
            (4.0, "b", "a"),
        ]

    def test_mode_at_agrees_with_switches_until(self):
        # right-continuity at every unrolled switch: fmod(t_i - t0, period) used
        # to land just below a pattern switch and return the mode being left
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        switches = sig.switches_until(2000.0)
        assert len(switches) == 1398
        for t, prev, nxt in switches:
            assert sig.mode_at(t) == nxt
            assert sig.mode_at(np.nextafter(t, -np.inf)) == prev

    def test_switches_per_period(self):
        assert SwitchingSignal(0.0, "a", ((1.0, "b"), (2.0, "c"))).switches_per_period == 2
        assert SwitchingSignal(0.0, "a", ((1.0, "b"),), period=2.0).switches_per_period == 2
        assert SwitchingSignal(0.0, "a", ((1.0, "b"), (2.0, "a")), 3.0).switches_per_period == 2

    def test_periodic_pattern_must_switch(self):
        with pytest.raises(ValueError, match="must switch"):
            SwitchingSignal(t0=0, initial_mode="a", period=2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_nonfinite_parameters(self, bad):
        with pytest.raises(ValueError, match="period"):
            SwitchingSignal(t0=0.0, initial_mode="a", segments=((1.0, "b"),), period=bad)
        with pytest.raises(ValueError, match="t0"):
            SwitchingSignal(t0=bad, initial_mode="a")


class TestSignalFromDwell:
    def test_scalar_dwell(self):
        sig = signal_from_dwell("a", ["b", "c"], 1.5)
        assert sig.switch_times == (1.5, 3.0)
        assert sig.period is None

    def test_periodic_includes_final_hold(self):
        sig = signal_from_dwell("a", ["b", "c"], 2.0, periodic=True)
        assert sig.switch_times == (2.0, 4.0)
        assert sig.period == pytest.approx(6.0)

    def test_dwell_list(self):
        sig = signal_from_dwell("a", ["b"], [1.0, 3.0], periodic=True)
        assert sig.switch_times == (1.0,)
        assert sig.period == pytest.approx(4.0)

    def test_no_transitions_gives_constant_signal(self):
        sig = signal_from_dwell("a", [])
        assert sig.segments == ()

    def test_errors(self):
        with pytest.raises(EmptyTransitions):
            signal_from_dwell("a", [], periodic=True)
        with pytest.raises(NonpositiveDwell):
            signal_from_dwell("a", ["b"], 0.0)
        with pytest.raises(NonpositiveDwell):
            signal_from_dwell("a", ["b"])
        with pytest.raises(ValueError):
            signal_from_dwell("a", ["b"], [1.0, 2.0])

    @given(
        dwells=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=6),
    )
    @settings(max_examples=50)
    def test_switch_times_accumulate_dwells(self, dwells):
        modes = [f"m{i}" for i in range(len(dwells))]
        sig = signal_from_dwell("start", modes, dwells)
        assert len(sig.switch_times) == len(dwells)
        np.testing.assert_allclose(sig.switch_times, np.cumsum(dwells), rtol=1e-12)
        for (t, mode) in sig.segments:
            assert sig.mode_at(t) == mode


class TestValidateDwell:
    def test_compliant_signal(self):
        sig = signal_from_dwell("a", ["b", "c"], 2.0)
        assert validate_dwell(sig, lambda p, q: 1.5) == []

    def test_flags_short_gap_with_modes(self):
        sig = signal_from_dwell("a", ["b", "c"], [2.0, 0.5])
        (v,) = validate_dwell(sig, lambda p, q: 1.0)
        assert (v.index, v.from_mode, v.to_mode) == (1, "b", "c")
        assert v.gap == pytest.approx(0.5)
        assert v.required == pytest.approx(1.0)

    def test_periodic_wrap_pair_is_checked(self):
        sig = signal_from_dwell("a", ["b"], [2.0, 0.5], periodic=True)
        (v,) = validate_dwell(sig, lambda p, q: 1.0)
        assert (v.from_mode, v.to_mode) == ("b", "a")
        assert v.gap == pytest.approx(0.5)

    def test_periodic_hold_across_the_wrap_is_one_gap(self):
        # a holds [2, 4) across the wrap at 3, which is no switch: one 2.0 gap
        sig = signal_from_dwell("a", ["b", "a"], [1.0, 1.0, 1.0], periodic=True)
        table = {("a", "b"): 1.5, ("b", "a"): 1.0}
        (v,) = validate_dwell(sig, lambda p, q: table[(p, q)])
        assert (v.index, v.from_mode, v.to_mode) == (0, "a", "b")  # the first, from t0
        assert v.gap == pytest.approx(1.0)
        assert validate_dwell(sig, lambda p, q: 1.0) == []
