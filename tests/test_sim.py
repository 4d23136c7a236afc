import dataclasses

import numpy as np
import pytest

from switchdwell import (
    ClassKFn,
    Subsystem,
    SwitchingSignal,
    convergence_product,
    integrate,
    pairwise_dwell,
    signal_from_dwell,
    simulate_switched,
    tube_sample,
    v_eval,
    verify_trapping,
    w_monitor,
)
from switchdwell.errors import (
    InsufficientSwitches,
    NonfiniteState,
    SignalMismatch,
)

STEP = 1e-3


class TestIntegrate:
    def test_matches_closed_form(self, system, exact_state):
        x0 = np.array([2.0, -1.5])
        traj = integrate(system[0], x0, 0.0, 2.5, STEP)
        np.testing.assert_allclose(
            traj.final_state, exact_state(system[0], x0, 2.5), atol=1e-10
        )

    def test_lands_exactly_on_endpoint(self, system):
        # 1.43 is not a multiple of the step; the last step shrinks
        traj = integrate(system[0], np.array([0.0, 1.0]), 0.0, 1.43, 3e-4)
        assert traj.times[-1] == 1.43
        assert np.all(np.diff(traj.times) > 0)

    def test_zero_length_interval(self, system):
        traj = integrate(system[0], np.array([1.0, 1.0]), 2.0, 2.0, STEP)
        assert len(traj.times) == 1
        assert traj.times[0] == 2.0

    def test_index_and_state_lookup(self, system):
        traj = integrate(system[0], np.array([1.0, 1.0]), 0.0, 1.0, STEP)
        assert traj.index_at(0.5) == 500
        np.testing.assert_array_equal(traj.state_at(0.0), [1.0, 1.0])
        with pytest.raises(KeyError):
            traj.index_at(0.50049)

    def test_invalid_inputs(self, system):
        x0 = np.array([0.0, 0.0])
        with pytest.raises(ValueError):
            integrate(system[0], x0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(system[0], x0, 1.0, 0.0, STEP)
        with pytest.raises(NonfiniteState):
            integrate(system[0], np.array([np.nan, 0.0]), 0.0, 1.0, STEP)

    def test_finite_time_blowup_raises(self):
        cubic = Subsystem(
            label="cubic",
            field=lambda x: x**3,
            equilibrium=np.zeros(1),
            decay_rate=1.0,
            alpha=ClassKFn(1.0, 2.0),
            beta=ClassKFn(1.0, 2.0),
            lyapunov=lambda x: float(x @ x),
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonfiniteState):
            integrate(cubic, np.array([10.0]), 0.0, 1.0, STEP)


class TestSimulateSwitched:
    def test_events_follow_signal(self, system):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        assert len(traj.switch_events) == 1
        ev = traj.switch_events[0]
        assert (ev.t, ev.prev_mode, ev.next_mode) == (1.43, 0, -1)
        assert traj.times[-1] == 2.86

    def test_state_continuous_and_sample_carries_incoming_mode(self, system):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        i = traj.index_at(1.43)
        (ev,) = traj.switch_events
        assert ev.index == i
        np.testing.assert_array_equal(traj.states[i], ev.state)
        # sample i opens the mode -1 run, sample i - 1 closes the mode 0 run
        assert traj.segments() == [(0, i, 0), (i, len(traj.times), -1)]

    def test_segments_when_the_last_switch_lands_on_the_horizon(self, system):
        sig = signal_from_dwell(1, [0], 1.0, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 5.0, STEP)
        assert len(traj.times) == 5001
        assert traj.segments() == [
            (0, 1000, 1),
            (1000, 2000, 0),
            (2000, 3000, 1),
            (3000, 4000, 0),
            (4000, 5000, 1),
            (5000, 5001, 0),  # the switch sample at the horizon alone
        ]
        for ev in traj.switch_events:
            assert traj.times[ev.index] == ev.t
            np.testing.assert_array_equal(traj.states[ev.index], ev.state)
        # the one-sample run at the horizon has no interval to monitor
        verdicts = w_monitor(traj, system, sig)
        assert [(v.index, v.mode) for v in verdicts] == [(0, 1), (1, 0), (2, 1), (3, 0), (4, 1)]
        assert verdicts[-1].t_end == 5.0

    def test_matches_piecewise_closed_form(self, system, exact_state):
        sig = signal_from_dwell(1, [0], 1.0)
        x0 = np.array([0.5, 0.2])
        traj = simulate_switched(system, sig, x0, 2.0, STEP)
        mid = exact_state(system[1], x0, 1.0)
        np.testing.assert_allclose(
            traj.final_state, exact_state(system[0], mid, 1.0), atol=1e-10
        )

    def test_periodic_signal_unrolls(self, system):
        sig = signal_from_dwell(1, [0], 1.0, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 5.0, STEP)
        assert [ev.t for ev in traj.switch_events] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_horizon_must_exceed_start(self, system):
        sig = SwitchingSignal(t0=1.0, initial_mode=0)
        with pytest.raises(ValueError):
            simulate_switched(system, sig, np.array([0.0, 1.0]), 1.0, STEP)


class TestVerifyTrapping:
    def test_dwell_compliant_run_passes(self, system, eps):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        report = verify_trapping(traj, system, sig, eps)
        assert report.overall_pass
        (rec,) = report.records
        assert rec.mode == 0  # region of the mode being exited
        assert rec.v <= eps

    def test_short_dwell_fails(self, system, eps):
        sig = signal_from_dwell(0, [-1], 0.5)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 1.0, STEP)
        report = verify_trapping(traj, system, sig, eps)
        assert not report.overall_pass
        assert report.records[0].v > eps

    def test_signal_mismatch_detected(self, system, eps):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        other = signal_from_dwell(0, [-1], 1.5)
        with pytest.raises(SignalMismatch):
            verify_trapping(traj, system, other, eps)

    def test_batched_v_equals_per_switch_v_eval(self, system, eps):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([-0.5, 0.5]), 22.88, STEP)
        report = verify_trapping(traj, system, sig, eps)
        assert len(report.records) == len(traj.switch_events) > 10
        for rec, ev in zip(report.records, traj.switch_events):
            v = v_eval(system[ev.prev_mode], ev.state)
            assert (rec.mode, rec.v, rec.member, rec.strict_member) == (
                ev.prev_mode, v, v <= eps + 1e-9, v <= eps
            )
            assert type(rec.v) is float and type(rec.member) is bool

    def test_serialization(self, system, eps):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        doc = verify_trapping(traj, system, sig, eps).to_dict()
        assert doc["overall_pass"] is True
        assert doc["records"][0]["member"] is True


class TestWMonitor:
    def test_exact_decay_keeps_w_constant(self, system):
        # for these modes grad V . f = -2V exactly, so W(t) = e^{2t} V is constant
        sig = signal_from_dwell(1, [0, -1], 1.43)
        traj = simulate_switched(system, sig, np.array([2.0, 2.0]), 4.0, STEP)
        verdicts = w_monitor(traj, system, sig)
        assert len(verdicts) == 3
        assert all(v.nonincreasing for v in verdicts)
        assert max(abs(v.max_relative_increase) for v in verdicts) < 1e-10

    def test_switch_just_after_a_grid_point(self, system):
        # the switch interval ends with a 5e-10 step, so the grid point before
        # the switch lies within 1e-9 of it; the mode -1 interval must still
        # start at the switch sample
        t_switch = 1.0000000005
        sig = signal_from_dwell(0, [-1], t_switch)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.5, STEP)
        first, second = w_monitor(traj, system, sig)
        assert (first.mode, second.mode) == (0, -1)
        assert first.nonincreasing and second.nonincreasing
        assert first.t_end == second.t_start == t_switch

    @pytest.mark.filterwarnings("error")
    def test_long_horizon_does_not_overflow(self, system):
        # exp(2t) overflows from t ~ 355; each interval's W is scaled to its start
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([-0.5, 0.5]), 400.0, STEP)
        verdicts = w_monitor(traj, system, sig)
        assert len(verdicts) == 280
        assert all(v.nonincreasing for v in verdicts)
        assert max(v.max_relative_increase for v in verdicts) < 1e-10

    def test_overclaimed_rate_flagged(self, system):
        from switchdwell.core import SwitchedSystem

        fast = SwitchedSystem(
            subsystems=tuple(
                dataclasses.replace(s, decay_rate=3.0) for s in system.subsystems
            )
        )
        sig = signal_from_dwell(1, [], None)
        traj = simulate_switched(fast, sig, np.array([2.0, 2.0]), 1.0, STEP)
        (verdict,) = w_monitor(traj, fast, sig)
        assert not verdict.nonincreasing


class TestConvergenceProduct:
    def test_decaying_products_certify(self, system, eps):
        sig = signal_from_dwell(1, [0, -1, 0], 2.1, periodic=True)
        traj = simulate_switched(system, sig, np.array([5.0, 5.0]), 26.0, STEP)
        report = convergence_product(system, sig, traj, eps, i_max=12)
        assert report.certified
        assert report.entry_index is not None
        assert np.all(np.diff(report.log_products) < 0)
        assert len(report.mu_values) == 12
        doc = report.to_dict()
        assert doc["w_nonincreasing_everywhere"] is True

    def test_requires_enough_switches(self, system, eps):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        with pytest.raises(InsufficientSwitches):
            convergence_product(system, sig, traj, eps, i_max=5)


class TestTubeSample:
    def test_zero_time_returns_boundary(self, system, eps):
        (t0_snap,) = tube_sample(system, 1, 0, eps, [0.0], 16, STEP)
        t, pts = t0_snap
        assert t == 0.0
        radii = np.linalg.norm(pts - system[1].equilibrium, axis=1)
        np.testing.assert_allclose(radii, np.sqrt(eps), rtol=1e-12)

    def test_image_enters_target_region_at_dwell_time(self, system, eps):
        T = pairwise_dwell(eps, system[1], system[0])
        ((_, pts),) = tube_sample(system, 1, 0, eps, [T], 64, STEP)
        worst = max(v_eval(system[0], p) for p in pts)
        assert worst <= eps + 1e-6

    def test_batch_matches_single_integration(self, system, eps, exact_state):
        ((_, pts0),) = tube_sample(system, 1, 0, eps, [0.0], 8, STEP)
        ((_, pts1),) = tube_sample(system, 1, 0, eps, [0.7], 8, STEP)
        for p0, p1 in zip(pts0, pts1):
            np.testing.assert_allclose(p1, exact_state(system[0], p0, 0.7), atol=1e-10)

    def test_invalid_grid(self, system, eps):
        with pytest.raises(ValueError):
            tube_sample(system, 1, 0, eps, [-1.0], 8, STEP)
        with pytest.raises(ValueError):
            tube_sample(system, 1, 0, eps, [1.0, 0.5], 8, STEP)
