import copy
import dataclasses
import math
import pickle

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
from switchdwell import kernels
from switchdwell.errors import (
    InsufficientSwitches,
    InvalidEpsilon,
    NonfiniteState,
    SignalMismatch,
    UnsupportedCertificate,
)
from switchdwell._csv import Runs, csv_blocks
from switchdwell.cli import _trajectory_csv
from switchdwell.core import SwitchedSystem, make_affine_subsystem
from switchdwell.dwell import pair_mu
from switchdwell.prebuilt import DEMO_A
from switchdwell.sim import (
    PLAN_CACHE_SIZE,
    W_MONOTONE_TOL,
    Trajectory,
    TrappingRecord,
    WIntervalVerdict,
    _convergence_terms,
    _plan_of,
    _signal_plan,
    _v_active,
    _v_exit,
)

STEP = 1e-3
NAN, INF = float("nan"), float("inf")


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
        x0 = np.array([1.0, 1.0])
        traj = integrate(system[0], x0, 2.0, 2.0, STEP)
        assert len(traj.times) == 1
        assert traj.times[0] == 2.0
        x0[:] = 5.0  # the sample is a copy, not a view of the caller's array
        np.testing.assert_array_equal(traj.states, [[1.0, 1.0]])

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

    def test_a_remainder_below_the_time_axis_resolution_is_no_step(self, system):
        # the switch is 12345 steps and 1.2e-12 s after t0; near t = 2e4, where
        # doubles are 3.6e-12 apart, a sample before that remainder would round
        # onto the switch instant
        t_switch = 20000.0 + STEP * 12345
        sig = SwitchingSignal(20000.0, 1, ((t_switch, 0),))
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), t_switch + 1.0, STEP)
        assert (np.diff(traj.times) > 0).all()
        assert traj.switch_events[0].index == 12345 and traj.times[12345] == t_switch

    def test_a_step_the_time_axis_cannot_resolve_is_named(self, system):
        # near t = 1e13 doubles are 2e-3 apart: a 1e-3 step needs more than 8 of them
        message = r"step 0\.001 at t = 10000000000000\.5: times this large need step > 0\.0156"
        x0 = np.array([0.0, 1.0])
        sig = SwitchingSignal(1e13, 1)
        for _ in range(2):  # a plan that fails is not cached
            with pytest.raises(ValueError, match=message):
                simulate_switched(system, sig, x0, 1e13 + 0.5, STEP)
        with pytest.raises(ValueError, match=message):
            integrate(system[1], x0, 1e13, 1e13 + 0.5, STEP)

    def test_periodic_signal_unrolls(self, system):
        sig = signal_from_dwell(1, [0], 1.0, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 5.0, STEP)
        assert [ev.t for ev in traj.switch_events] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_horizon_must_exceed_start(self, system):
        sig = SwitchingSignal(t0=1.0, initial_mode=0)
        with pytest.raises(ValueError):
            simulate_switched(system, sig, np.array([0.0, 1.0]), 1.0, STEP)

    def test_mixed_modes_equal_chained_integrate(self, system):
        # a callable mode between affine ones; dwell times off the grid, so
        # every interval ends with a partial step
        c = _callable_mode("c", lambda x: 0.1 * np.sin(x[::-1]) - x)
        mixed = SwitchedSystem(subsystems=system.subsystems + (c,))
        sig = signal_from_dwell(1, ["c", 0, "c", -1], [0.4013, 0.25, 0.3337, 0.12])
        x0, horizon = np.array([0.7, -0.4]), 1.5003
        traj = simulate_switched(mixed, sig, x0, horizon, STEP)
        times, states, indices = [], [], []
        x, t, mode = x0, sig.t0, sig.initial_mode
        for ts, _, nxt in sig.switches_until(horizon):
            piece = integrate(mixed[mode], x, t, ts, STEP)
            times.append(piece.times[:-1])
            states.append(piece.states[:-1])
            indices.append(sum(map(len, times)))
            x, t, mode = piece.final_state, ts, nxt
        tail = integrate(mixed[mode], x, t, horizon, STEP)
        assert traj.times.tobytes() == np.concatenate(times + [tail.times]).tobytes()
        assert traj.states.tobytes() == np.vstack(states + [tail.states]).tobytes()
        assert [ev.index for ev in traj.switch_events] == indices
        for ev in traj.switch_events:
            assert ev.state.tobytes() == traj.states[ev.index].tobytes()

    def test_blowup_in_a_middle_callable_interval_names_its_mode(self, system):
        boom = _callable_mode("boom", lambda x: 50.0 * x**3)
        cubic = SwitchedSystem(subsystems=system.subsystems + (boom,))
        sig = signal_from_dwell(1, ["boom", 0], [0.5, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonfiniteState, match="mode 'boom'"):
                simulate_switched(cubic, sig, np.array([0.0, 1.0]), 1.5, STEP)

    def test_affine_blowup_stops_before_a_callable_interval(self, system):
        # x' = 1000 x overflows within the first second; the callable after it
        # must never see the non-finite state
        up = Subsystem(
            label="up", field=lambda x: 1000.0 * x, equilibrium=np.zeros(2), decay_rate=1.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lambda x: float(x @ x),
            affine=(1000.0 * np.eye(2), np.zeros(2)),
        )
        seen = []

        def field(x):
            seen.append(bool(np.isfinite(x).all()))
            return -x

        mixed = SwitchedSystem(subsystems=system.subsystems + (up, _callable_mode("c", field)))
        sig = signal_from_dwell(0, ["up", "c"], [0.3, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonfiniteState, match="mode 'up'"):
                simulate_switched(mixed, sig, np.array([0.5, 1.0]), 1.5, STEP)
        assert all(seen)


class TestTrajectoryValue:
    """A trajectory is immutable: frozen fields, read-only arrays and a plan fixed when built."""

    def test_hand_built_times_must_strictly_increase(self):
        for times in ([0.0, 0.0, 1.0], [0.0, 2.0, 1.0]):
            with pytest.raises(ValueError, match="sample times must be strictly increasing"):
                Trajectory(np.array(times), np.zeros((3, 2)), 0, [], STEP)
        with pytest.raises(ValueError, match="times and states must have equal length"):
            Trajectory(np.arange(3.0), np.zeros((2, 2)), 0, [], STEP)

    def test_fields_and_arrays_cannot_be_written(self, system):
        sig = signal_from_dwell(0, [-1], 1.43)
        times, states = np.arange(3.0), np.zeros((3, 2))
        hand = Trajectory(times, states, 0, [], STEP)
        times[0], states[0] = -1.0, 1.0  # the trajectory holds copies
        assert hand.times[0] == 0.0 and not hand.states.any()
        for traj in (simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP), hand):
            for name, value in (("times", times), ("states", states), ("initial_mode", 1),
                                ("switch_events", []), ("step", 1.0)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(traj, name, value)
            for array in (traj.times, traj.states):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 5.0

    def test_switch_events_refuse_every_in_place_edit(self, system, eps):
        sig = signal_from_dwell(0, [-1, 0], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 4.0, STEP)
        hand = Trajectory(np.arange(3.0), np.zeros((3, 2)), 0, [], STEP)
        for events in (traj.switch_events, hand.switch_events):
            before = list(events)
            edits = [
                lambda: events.__setitem__(0, None),
                lambda: events.__setitem__(slice(0, 1), []),
                lambda: events.__delitem__(0),
                lambda: events.append(None),
                lambda: events.extend([None]),
                lambda: events.insert(0, None),
                lambda: events.pop(),
                lambda: events.remove(None),
                lambda: events.clear(),
                lambda: events.sort(key=id),
                lambda: events.reverse(),
                lambda: events.__iadd__([None]),
                lambda: events.__imul__(2),
            ]
            for edit in edits:
                with pytest.raises(TypeError, match="cannot be edited in place"):
                    edit()
            assert events == before
        # slices and sums are plain lists, so replace builds an edited trajectory
        events = traj.switch_events
        ev = events[0]
        edited = [dataclasses.replace(ev, t=ev.t + 0.5, state=ev.state + 1.0)] + events[1:]
        assert type(events[1:]) is list and type(edited) is list and type(events + []) is list
        moved = dataclasses.replace(traj, switch_events=edited)
        assert moved.switch_events == edited and traj.switch_events[0] is ev
        with pytest.raises(SignalMismatch):
            verify_trapping(moved, system, sig, eps)
        for twin in (copy.deepcopy(traj), pickle.loads(pickle.dumps(traj))):
            assert len(twin.switch_events) == len(events)
            with pytest.raises(TypeError):
                twin.switch_events.append(None)

    def test_segments_returns_a_new_list(self, system):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        segments = traj.segments()
        assert traj.segments() is not segments
        segments.clear()
        assert len(traj.segments()) == 2


def _callable_mode(label, field, lyapunov=lambda x: float(x @ x)):
    """A 2-D mode given only by its vector field."""
    return Subsystem(
        label=label,
        field=field,
        equilibrium=np.zeros(2),
        decay_rate=1.0,
        alpha=ClassKFn(1.0, 2.0),
        beta=ClassKFn(1.0, 2.0),
        lyapunov=lyapunov,
    )


def _mixed_system(system, lyapunov=lambda x: float(x @ x)):
    """The demo system plus callable mode 'c', and a periodic signal through every mode."""
    c = _callable_mode("c", lambda x: 0.1 * np.sin(x[::-1]) - x, lyapunov)
    mixed = SwitchedSystem(subsystems=system.subsystems + (c,))
    dwell = [0.4013, 0.25, 0.3337, 0.12, 0.3]
    return mixed, signal_from_dwell(1, ["c", 0, "c", -1], dwell, periodic=True)


def _v_case(system, case):
    """(system, signal, horizon, switches at least) of one mix of quadratic and callable V."""
    if case == "quadratic":
        return system, signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True), 6.0, 4
    if case == "no_switch":
        return system, signal_from_dwell(1, [], None), 1.0, 0
    mixed, periodic = _mixed_system(system)
    if case == "with_callable":
        return mixed, periodic, 6.0, 4
    # every exited mode quadratic, a callable one active on the tail
    return mixed, signal_from_dwell(1, [0, "c"], [0.4013, 0.25]), 2.0, 2


def _v_all(traj, system):
    """The active mode's V at every sample of ``traj``."""
    return _v_active(traj._plan, system, traj.states)


def _csv(traj, system):
    """``traj``'s trajectory CSV: refilled from its plan when it has a fill, else from its arrays."""
    plan = traj._plan
    if plan.fill is not None:
        return b"".join(_trajectory_csv(plan, system, traj.states[0]))
    columns = traj.times, traj.states, Runs(plan.modes, plan.lens), _v_all(traj, system)
    return b"".join(csv_blocks("t,x1,x2,mode,V_active\n", *columns))


class TestVPasses:
    @pytest.mark.parametrize("case", ["quadratic", "with_callable", "no_switch", "callable_tail"])
    def test_v_passes_equal_per_segment_and_per_switch_references(self, system, case):
        system, sig, horizon, switches = _v_case(system, case)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), horizon, STEP)
        assert len(traj.switch_events) >= switches
        per_segment = [system[m].v_batch(traj.states[lo:hi]) for lo, hi, m in traj.segments()]
        assert _v_all(traj, system).tobytes() == np.concatenate(per_segment).tobytes()
        per_switch = [v_eval(system[ev.prev_mode], ev.state) for ev in traj.switch_events]
        assert _v_exit(traj, system).tobytes() == np.array(per_switch).tobytes()

    @pytest.mark.parametrize("case", ["quadratic", "with_callable", "no_switch", "callable_tail"])
    def test_v_active_in_windows_is_the_whole_pass(self, system, case):
        system, sig, horizon, _ = _v_case(system, case)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), horizon, STEP)
        whole, X, plan = _v_all(traj, system), traj.states, traj._plan
        N = len(whole)
        # windows that cut segments, hold several, end past the last sample or
        # are one row wide
        for width in (1, 7, 1430, 2048, N, N + 5):
            parts = [_v_active(plan, system, X[lo : lo + width], lo) for lo in range(0, N, width)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), width


def _v_exit_reference(traj, system):
    return np.array([v_eval(system[ev.prev_mode], ev.state) for ev in traj.switch_events])


def _shifted_demo_system(shift):
    """The demo system's labels and A, with every b(u) = (u + shift, 1)."""
    return SwitchedSystem(
        subsystems=tuple(
            make_affine_subsystem(DEMO_A, np.array([u + shift, 1.0]), u) for u in (1, 0, -1)
        )
    )


class TestVExitCache:
    def test_reused_for_the_same_system_and_events(self, system, eps):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
        v = _v_exit(traj, system)
        assert not v.flags.writeable
        assert _v_exit(traj, system) is v
        verify_trapping(traj, system, sig, eps)
        convergence_product(system, sig, traj, eps, i_max=3)
        assert _v_exit(traj, system) is v

    def test_dropped_by_replace_event_swap_and_another_system(self, system):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
        first = _v_exit(traj, system)
        # a replaced trajectory is another value: V of its own, then kept
        fresh = dataclasses.replace(traj)
        again = _v_exit(fresh, system)
        assert again is not first and _v_exit(fresh, system) is again
        assert again.tobytes() == first.tobytes()
        # V at a switch reads the switch row of states, not the event's copy
        ev = traj.switch_events[0]
        moved = dataclasses.replace(ev, state=ev.state + 1e-3)
        swapped = dataclasses.replace(traj, switch_events=[moved] + traj.switch_events[1:])
        assert _v_exit(swapped, system).tobytes() == first.tobytes()
        states = traj.states.copy()
        states[ev.index] = moved.state
        replaced = dataclasses.replace(swapped, states=states)
        v = _v_exit(replaced, system)
        assert v.tobytes() == _v_exit_reference(replaced, system).tobytes()
        assert v[0] != first[0] and v[1:].tobytes() == first[1:].tobytes()
        # an equal system is another object: recomputed, and kept in place of the first
        same = SwitchedSystem(subsystems=system.subsystems)
        kept = _v_exit(traj, same)
        assert kept is not first and kept.tobytes() == first.tobytes()
        assert _v_exit(traj, same) is kept
        back = _v_exit(traj, system)
        assert back is not first and back.tobytes() == first.tobytes()
        shifted = _shifted_demo_system(0.25)
        got = _v_exit(traj, shifted)
        assert got.tobytes() == _v_exit_reference(traj, shifted).tobytes()
        assert not np.array_equal(got, first)


class TestRecords:
    def test_records_are_immutable_positional_values(self, system, eps):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        x0 = np.array([0.7, -0.4])
        traj = simulate_switched(system, sig, x0, 6.0, STEP)
        report = verify_trapping(traj, system, sig, eps)
        verdicts = w_monitor(traj, system, sig)
        assert TrappingRecord._fields == ("index", "t", "mode", "v", "member", "strict_member")
        assert WIntervalVerdict._fields == (
            "index", "t_start", "t_end", "mode", "nonincreasing", "max_relative_increase"
        )
        rec, verdict = report.records[1], verdicts[1]
        assert tuple(rec) == (rec.index, rec.t, rec.mode, rec.v, rec.member, rec.strict_member)
        assert rec.index == 1 and verdict.index == 1
        for r in (rec, verdict):
            with pytest.raises(AttributeError):
                r.index = 7
            copy = type(r)(*r)
            assert copy == r and copy is not r and hash(copy) == hash(r)
            assert repr(r) == repr(copy) and repr(r).startswith(f"{type(r).__name__}(index=1, ")
            assert type(r)(**r._asdict()) == r
        # a second run gives equal records, built afresh
        again = simulate_switched(system, sig, x0, 6.0, STEP)
        assert verify_trapping(again, system, sig, eps) == report
        assert w_monitor(again, system, sig) == verdicts
        assert report.overall_pass is all(r.member for r in report.records) is False


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

    def test_callable_v_is_evaluated_once_per_switch(self, system, eps):
        calls = []

        def lyapunov(x):
            calls.append(1)
            return float(x @ x)

        mixed, sig = _mixed_system(system, lyapunov)
        traj = simulate_switched(mixed, sig, np.array([0.7, -0.4]), 6.0, STEP)
        calls.clear()
        report = verify_trapping(traj, mixed, sig, eps)
        # V of the quadratic modes is a closed form; the callable's is not
        assert len(calls) == sum(ev.prev_mode == "c" for ev in traj.switch_events) > 2
        assert len(report.records) == len(traj.switch_events)

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

    def test_a_one_sample_trajectory_has_no_interval(self, system):
        traj = Trajectory(np.zeros(1), np.array([[0.0, 1.0]]), 1, [], STEP)
        assert w_monitor(traj, system, SwitchingSignal(0.0, 1)) == []


def _w_monitor_per_segment(traj, system):
    """One W evaluation per segment, the reference for the batched monitor."""
    last = len(traj.times) - 1
    out = []
    for j, (lo, hi, mode) in enumerate(traj.segments()):
        hi = min(hi, last)
        if hi <= lo:
            continue
        sub = system[mode]
        seg_t = traj.times[lo : hi + 1]
        w = np.exp(sub.decay_rate * (seg_t - seg_t[0])) * sub.v_batch(traj.states[lo : hi + 1])
        scale = np.maximum(np.abs(w[:-1]), np.abs(w[1:]))
        scale[scale == 0.0] = 1.0
        worst = float((np.diff(w) / scale).max())
        out.append(
            WIntervalVerdict(j, float(seg_t[0]), float(seg_t[-1]), mode, worst <= W_MONOTONE_TOL, worst)
        )
    return out


@pytest.mark.parametrize(
    "signal, horizon",
    [
        (signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True), 10.0),
        (signal_from_dwell(1, [0, -1], 1.43), 2.86),
        (signal_from_dwell(1, [0, -1], 1.43), 2.86 + STEP),
    ],
    ids=["periodic", "switch_on_horizon", "one_step_tail"],
)
def test_w_monitor_matches_per_segment_reference(system, signal, horizon):
    traj = simulate_switched(system, signal, np.array([0.3, -0.2]), horizon, STEP)
    ref = _w_monitor_per_segment(traj, system)
    # V jumps up at switches, so an unmasked difference across a junction
    # would flip verdicts
    got = w_monitor(traj, system, signal)
    assert got == ref
    assert [v.max_relative_increase for v in got] == [v.max_relative_increase for v in ref]
    assert len(got) == len(traj.switch_events) + (traj.times[-1] > traj.switch_events[-1].t)


@pytest.mark.parametrize(
    "check",
    [
        lambda traj, system, sig: verify_trapping(traj, system, sig, 0.05),
        lambda traj, system, sig: convergence_product(system, sig, traj, 0.05, i_max=1),
        lambda traj, system, sig: w_monitor(traj, system, sig),
    ],
    ids=["verify_trapping", "convergence_product", "w_monitor"],
)
@pytest.mark.parametrize(
    "other",
    [
        signal_from_dwell(0, [-1], 1.5),
        signal_from_dwell(0, [1], 1.43),
        signal_from_dwell(0, [-1, 0], 1.43),
    ],
    ids=["time", "mode", "count"],
)
def test_wrong_signal_is_a_mismatch(system, check, other):
    sig = signal_from_dwell(0, [-1], 1.43)
    traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
    check(traj, system, sig)
    with pytest.raises(SignalMismatch):
        check(traj, system, other)


@pytest.mark.parametrize(
    "check",
    [
        lambda traj, system, sig: verify_trapping(traj, system, sig, 0.05),
        lambda traj, system, sig: convergence_product(system, sig, traj, 0.05, i_max=1),
        lambda traj, system, sig: w_monitor(traj, system, sig),
    ],
    ids=["verify_trapping", "convergence_product", "w_monitor"],
)
def test_edited_trajectory_is_matched_again(system, check):
    sig = signal_from_dwell(0, [-1, 0], 1.43)
    x0 = np.array([0.0, 1.0])
    traj = simulate_switched(system, sig, x0, 4.0, STEP)
    check(traj, system, sig)
    # the same event objects, but the trajectory now ends before the second switch
    cut = traj.index_at(2.0)
    short = dataclasses.replace(traj, times=traj.times[:cut], states=traj.states[:cut])
    with pytest.raises(SignalMismatch):
        check(short, system, sig)
    # one event moved in time
    ev = traj.switch_events[0]
    late = dataclasses.replace(ev, t=ev.t + 0.01)
    with pytest.raises(SignalMismatch):
        check(dataclasses.replace(traj, switch_events=[late] + traj.switch_events[1:]), system, sig)
    # one event's index off its sample: past the end, negative, the start, another sample,
    # and the second event's index at the first's
    first, second = traj.switch_events
    for events in [[dataclasses.replace(first, index=i), second] for i in (10**6, -5, 0, 5)] + [
        [first, dataclasses.replace(second, index=first.index)]
    ]:
        with pytest.raises(SignalMismatch, match=r"has index -?\d+, not its sample"):
            check(dataclasses.replace(traj, switch_events=events), system, sig)
    # the same switches, but the signal starts at another time
    switches = ((1.43, 0), (2.86, -1))
    traj = simulate_switched(system, SwitchingSignal(0.0, 1, switches), x0, 4.0, STEP)
    check(traj, system, SwitchingSignal(0.0, 1, switches))
    with pytest.raises(SignalMismatch, match=r"\(0\.0, None, 1\) disagrees .* \(-1\.0, None, 1\)"):
        check(traj, system, SwitchingSignal(-1.0, 1, switches))
    # no switches, but the signal holds another mode
    still = simulate_switched(system, SwitchingSignal(0.0, 1), x0, 1.0, STEP)
    with pytest.raises(SignalMismatch, match=r"\(0\.0, None, 1\) disagrees .* \(0\.0, None, 0\)"):
        check(still, system, SwitchingSignal(0.0, 0))


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

    def test_negative_i_max_is_rejected(self, system, eps):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        for bad in (-1, 1.5):
            with pytest.raises(ValueError, match="i_max"):
                convergence_product(system, sig, traj, eps, i_max=bad)
        assert convergence_product(system, sig, traj, eps, i_max=np.int64(1)).mu_values
        empty = convergence_product(system, sig, traj, eps, i_max=0)
        assert (empty.mu_values, empty.log_products, empty.certified) == ((), (), False)

    def test_needs_quadratic_certificates(self, system, eps):
        mixed, sig = _mixed_system(system)
        traj = simulate_switched(mixed, sig, np.array([0.0, 1.0]), 1.0, STEP)
        with pytest.raises(UnsupportedCertificate):
            convergence_product(mixed, sig, traj, eps, i_max=1)

    @pytest.mark.parametrize("i_max", [0, 1, 5, 14])
    def test_terms_equal_a_per_switch_reference(self, eps, i_max):
        # decay rates 2, 3 and 4, so k_b - k_a differs between pairs; the signal
        # visits the pairs (1, 0), (0, -1), (-1, 0), (0, 1) and (1, -1)
        system = SwitchedSystem(
            subsystems=tuple(
                make_affine_subsystem(c * DEMO_A, np.array([float(u), 1.0]), u)
                for c, u in ((1.0, 1), (1.5, 0), (2.0, -1))
            )
        )
        sig = signal_from_dwell(1, [0, -1, 0, 1, -1], [1.1, 0.9, 0.7, 1.3, 0.8, 1.2], periodic=True)
        traj = simulate_switched(system, sig, np.array([3.0, -2.0]), 15.0, STEP)
        events = traj.switch_events
        assert len({(ev.prev_mode, ev.next_mode) for ev in events[:i_max]}) >= min(i_max, 3)
        report = convergence_product(system, sig, traj, eps, i_max)
        times = [sig.t0] + [ev.t for ev in events]
        mus, tildes, logs, total = [], [], [], 0.0
        for j, ev in enumerate(events[:i_max]):
            a, b = system[ev.prev_mode], system[ev.next_mode]
            mu = pair_mu(eps, float(np.linalg.norm(b.equilibrium - a.equilibrium)))
            mus.append(mu)
            tildes.append(math.exp((b.decay_rate - a.decay_rate) * times[j + 1]) * mu)
            total += math.log(mu) - a.decay_rate * (times[j + 1] - times[j])
            logs.append(total)
        for got, ref in zip(
            (report.mu_values, report.mu_tilde_values, report.log_products), (mus, tildes, logs)
        ):
            assert np.array(got, dtype=float).tobytes() == np.array(ref, dtype=float).tobytes()
        assert report.certified == any(lp <= logs[0] + math.log(1e-6) for lp in logs)
        v = [v_eval(system[ev.prev_mode], ev.state) for ev in events]
        assert report.entry_index == next(
            (i for i, vi in enumerate(v) if vi <= eps + 1e-9), None
        )

    def test_an_overflowing_mu_tilde_is_inf(self, eps):
        # k_b - k_a = 8 at t = 150, 350, ... takes exp past the largest double
        system = SwitchedSystem(
            subsystems=(
                make_affine_subsystem(-np.eye(2), np.array([1.0, 0.0]), "a"),
                make_affine_subsystem(-5.0 * np.eye(2), np.array([0.0, 5.0]), "b"),
            )
        )
        sig = signal_from_dwell("a", ["b"], 50.0, periodic=True)
        traj = simulate_switched(system, sig, np.zeros(2), 400.0, 0.01)
        report = convergence_product(system, sig, traj, eps, i_max=7)
        ks = {label: system[label].decay_rate for label in "ab"}
        for ev, mu, tilde in zip(traj.switch_events, report.mu_values, report.mu_tilde_values):
            x = (ks[ev.next_mode] - ks[ev.prev_mode]) * ev.t
            assert tilde == (math.exp(x) * mu if x < 709.0 else math.inf)
        assert math.inf in report.mu_tilde_values and 0.0 in report.mu_tilde_values
        assert all(map(math.isfinite, report.mu_values + report.log_products))

    def test_threads_alternating_keys_agree_with_a_serial_run(self, system):
        import sys
        import threading

        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
        keys = [(0.05, 3), (0.07, 1), (0.05, 1), (0.06, 2)]
        serial = [repr(convergence_product(system, sig, traj, *key)) for key in keys]
        mismatches, done = [], []

        def work(barrier, shift):
            barrier.wait(timeout=30)
            for r in range(40):
                j = (r + shift) % len(keys)
                if repr(convergence_product(system, sig, traj, *keys[j])) != serial[j]:
                    mismatches.append(keys[j])
            done.append(shift)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(4)
            workers = [threading.Thread(target=work, args=(barrier, s)) for s in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == [0, 1, 2, 3] and mismatches == []


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

    def test_a_callable_target_integrates_each_point_like_the_affine_maps(self, system, eps):
        callable_0 = dataclasses.replace(system[0], affine=None)
        mixed = SwitchedSystem((system[1], callable_0, system[-1]))
        grid = [0.0, 0.5, 1.43]
        affine = tube_sample(system, 1, 0, eps, grid, 8, STEP)
        generic = tube_sample(mixed, 1, 0, eps, grid, 8, STEP)
        assert [t for t, _ in generic] == grid
        for (_, a), (_, g) in zip(affine, generic):
            np.testing.assert_allclose(g, a, rtol=0, atol=1e-12)

    def test_a_second_call_maps_by_the_same_maps_into_new_arrays(self, system, eps):
        grid = [0.0, 0.5, 1.43]
        first = tube_sample(system, 1, 0, eps, grid, 8, STEP)
        second = tube_sample(system, 1, 0, eps, grid, 8, STEP)
        for (t1, a), (t2, b) in zip(first, second):
            assert t1 == t2 and a.tobytes() == b.tobytes()
            assert a is not b and a.flags.writeable and b.flags.writeable
            assert not np.shares_memory(a, b)

    def test_threads_sharing_the_maps_agree_with_a_serial_call(self, system, eps):
        import sys
        import threading

        grid = [0.0, 0.25, 0.5, 1.43]
        serial = [pts.tobytes() for _, pts in tube_sample(system, 1, 0, eps, grid, 8, STEP)]
        sub = dataclasses.replace(system[0])  # an object of its own, so the threads race to plan
        shared = SwitchedSystem((system[1], sub, system[-1]))
        results = []

        def worker():
            for _ in range(5):
                snapshots = tube_sample(shared, 1, 0, eps, grid, 8, STEP)
                results.append([pts.tobytes() for _, pts in snapshots])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 20


class TestNonfiniteArguments:
    """Non-finite times and steps end in one ValueError before any unrolling."""

    @pytest.fixture(autouse=True)
    def no_unrolling(self, monkeypatch):
        def unreachable(self, k0=0):
            raise AssertionError("the signal was unrolled")

        monkeypatch.setattr(SwitchingSignal, "_unroll", unreachable)

    @pytest.mark.parametrize(
        "horizon, step", [(NAN, STEP), (INF, STEP), (-INF, STEP), (6.0, NAN), (6.0, INF)]
    )
    def test_simulate_switched(self, system, horizon, step):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        with pytest.raises(ValueError, match="must be finite"):
            simulate_switched(system, sig, np.array([0.7, -0.4]), horizon, step)

    @pytest.mark.parametrize(
        "t0, t1, step", [(0.0, NAN, STEP), (0.0, INF, STEP), (-INF, 1.0, STEP), (0.0, 1.0, NAN)]
    )
    def test_integrate(self, system, t0, t1, step):
        with pytest.raises(ValueError, match="must be finite"):
            integrate(system[0], np.array([0.0, 1.0]), t0, t1, step)

    @pytest.mark.parametrize(
        "t_grid, step", [([NAN], STEP), ([0.5, INF], STEP), ([0.5], NAN), ([0.5], INF)]
    )
    def test_tube_sample(self, system, eps, t_grid, step):
        with pytest.raises(ValueError, match="finite"):
            tube_sample(system, 1, 0, eps, t_grid, 8, step)


class TestNanEps:
    """A NaN or infinite eps is ``InvalidEpsilon``, which callers can catch as a ``ValueError``."""

    def test_verify_trapping(self, system):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        for bad in (NAN, INF):
            with pytest.raises(ValueError, match="eps must be positive") as info:
                verify_trapping(traj, system, sig, bad)
            assert info.type is InvalidEpsilon

    def test_convergence_product(self, system):
        sig = signal_from_dwell(0, [-1], 1.43)
        traj = simulate_switched(system, sig, np.array([0.0, 1.0]), 2.86, STEP)
        for bad in (NAN, INF):
            with pytest.raises(ValueError, match="eps must be positive") as info:
                convergence_product(system, sig, traj, bad, i_max=1)
            assert info.type is InvalidEpsilon

    def test_tube_sample(self, system):
        for bad in (NAN, INF):
            with pytest.raises(ValueError, match="eps must be positive") as info:
                tube_sample(system, 1, 0, bad, [0.5], 8, STEP)
            assert info.type is InvalidEpsilon


def _checks(traj, system, sig, i_max=None, eps=0.05):
    """repr of every check of ``traj``; equal reprs mean bit-equal floats and equal labels."""
    out = [
        verify_trapping(traj, system, sig, eps),
        w_monitor(traj, system, sig),
        _v_all(traj, system).tobytes(),
        _v_exit(traj, system).tobytes(),
        _csv(traj, system),
    ]
    if all(sub.quadratic for sub in system.subsystems):
        n = len(traj.switch_events) if i_max is None else i_max
        out.append(convergence_product(system, sig, traj, eps, n))
    return repr(out)


def _plan_case(system, case):
    """(system, signal, trajectory) of one shape of trajectory, from x0 = (0.7, -0.4)."""
    x0 = np.array([0.7, -0.4])
    if case == "integrate":  # a negative t0 and a partial last step
        traj = integrate(system[0], x0, -0.5, 1.2345, STEP)
        return SwitchedSystem((system[0],)), traj._plan.signal, traj
    if case.startswith("mixed"):
        system, periodic = _mixed_system(system)
        if case == "mixed_periodic":
            sig, horizon = periodic, 6.0
        else:
            sig = signal_from_dwell(1, ["c", 0], [0.4013, 0.25])
            horizon = sig.segments[-1][0]
    elif case == "periodic":
        sig, horizon = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True), 6.0
    elif case == "no_switch":
        sig, horizon = signal_from_dwell(1, [], None), 1.0
    else:
        sig = signal_from_dwell(1, [0, -1], 1.43)
        horizon = sig.segments[-1][0]  # the last switch on the horizon
    return system, sig, simulate_switched(system, sig, x0, horizon, STEP)


class TestPlan:
    @pytest.mark.parametrize("i_max", ["0", "1", "all"])
    @pytest.mark.parametrize(
        "case",
        ["periodic", "on_horizon", "no_switch", "mixed_periodic", "mixed_on_horizon", "integrate"],
    )
    def test_plan_path_equals_the_uncached_plan(self, system, case, i_max):
        system, sig, traj = _plan_case(system, case)
        plan = traj._plan
        assert _plan_of(traj, sig) is plan and traj.times is plan.times
        # a replaced trajectory has read-only copies and a plan of its own
        fresh = dataclasses.replace(traj)
        for new, old in ((fresh.times, traj.times), (fresh.states, traj.states)):
            assert not old.flags.writeable and not new.flags.writeable
            assert new is not old and new.tobytes() == old.tobytes()
        assert _plan_of(fresh, sig) is fresh._plan is not plan
        n = {"0": 0, "1": 1, "all": len(traj.switch_events)}[i_max]
        n = min(n, len(traj.switch_events))
        assert _checks(traj, system, sig, n) == _checks(fresh, system, sig, n)
        assert w_monitor(traj, system, sig) == _w_monitor_per_segment(traj, system)
        assert _v_exit(traj, system).tobytes() == _v_exit_reference(traj, system).tobytes()
        if case in ("on_horizon", "mixed_on_horizon"):
            assert traj.switch_events[-1].index == len(traj.times) - 1

    def test_changed_trajectories_and_other_objects_fall_back(self, system):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
        expected = _checks(dataclasses.replace(traj), system, sig)
        assert _checks(traj, system, sig) == expected
        # an equal system is another object
        same = SwitchedSystem(subsystems=system.subsystems)
        assert _checks(traj, same, sig) == expected
        # other states: V at every sample and at the switches follows them
        moved = dataclasses.replace(traj, states=traj.states + 1e-3)
        assert _checks(moved, system, sig) != expected
        per_segment = [system[m].v_batch(moved.states[lo:hi]) for lo, hi, m in moved.segments()]
        assert _v_all(moved, system).tobytes() == np.concatenate(per_segment).tobytes()
        rows = [(e.prev_mode, e.index) for e in moved.switch_events]
        per_switch = [v_eval(system[mode], moved.states[i]) for mode, i in rows]
        assert _v_exit(moved, system).tobytes() == np.array(per_switch).tobytes()
        # another, value-equal initial mode: matched to the signal, and its own label
        relabelled = dataclasses.replace(traj, initial_mode=1.0)
        assert _plan_of(relabelled, sig) is relabelled._plan is not traj._plan
        assert [type(m) for _, _, m in relabelled.segments()[:2]] == [float, int]
        assert repr(w_monitor(relabelled, system, sig)[0].mode) == "1.0"
        assert repr(verify_trapping(relabelled, system, sig, 0.05)) == repr(
            verify_trapping(traj, system, sig, 0.05)
        )

    def test_kept_convergence_terms_follow_eps_and_i_max(self, system):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
        fresh = dataclasses.replace(traj)
        for eps, i_max in [(0.05, 3), (0.05, 1), (0.07, 1), (0.05, 3), (0.05, 3)]:
            got = convergence_product(system, sig, traj, eps, i_max)
            assert repr(got) == repr(convergence_product(system, sig, fresh, eps, i_max))
            assert len(got.mu_values) == i_max

    def test_value_equal_signals_keep_their_own_plans_and_labels(self, system, eps):
        as_int = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        as_float = signal_from_dwell(1.0, [0.0, -1.0, 0.0], 1.43, periodic=True)
        x0 = np.array([0.7, -0.4])
        t_int = simulate_switched(system, as_int, x0, 6.0, STEP)
        t_float = simulate_switched(system, as_float, x0, 6.0, STEP)
        assert t_int._plan is not t_float._plan
        r_int = verify_trapping(t_int, system, as_int, eps)
        r_float = verify_trapping(t_float, system, as_float, eps)
        assert {type(r.mode) for r in r_int.records} == {int}
        assert {type(r.mode) for r in r_float.records} == {float}
        assert r_int == r_float and repr(r_int) != repr(r_float)
        # checked against the other signal, a trajectory keeps its events' labels
        assert repr(verify_trapping(t_int, system, as_float, eps)) == repr(r_int)
        cross = w_monitor(t_float, system, as_int)
        assert repr(cross) == repr(w_monitor(t_float, system, as_float))

    def test_a_sweep_unrolls_its_signal_once(self, system, eps, monkeypatch):
        calls = []
        original = SwitchingSignal.switches_until

        def counting(self, t_end):
            calls.append(t_end)
            return original(self, t_end)

        monkeypatch.setattr(SwitchingSignal, "switches_until", counting)
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        for i in range(5):
            traj = simulate_switched(system, sig, np.array([0.7, -0.4]) * (1 + 0.2 * i), 6.0, STEP)
            verify_trapping(traj, system, sig, eps)
            convergence_product(system, sig, traj, eps, i_max=3)
            w_monitor(traj, system, sig)
            _csv(traj, system)
        assert calls == [6.0]
        # a pass over 3 signals, 3 times: each signal is planned once
        signals = [signal_from_dwell(1, [0, -1, 0], 1.5 + 0.1 * j, periodic=True) for j in range(3)]
        _convergence_terms.cache_clear()
        for i in range(3):
            for sig in signals:
                x0 = np.array([0.7, -0.4]) * (1 + 0.2 * i)
                traj = simulate_switched(system, sig, x0, 6.0, STEP)
                convergence_product(system, sig, traj, eps, i_max=3)
        assert len(calls) == 1 + 3
        assert _convergence_terms.cache_info().misses == 3

    def test_a_round_robin_over_more_signals_than_plans_replans_every_start(self, system):
        signals = [
            signal_from_dwell(1, [0, -1, 0], 1.43 + 1e-3 * i, periodic=True)
            for i in range(PLAN_CACHE_SIZE + 1)
        ]

        def start(sig):
            traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
            return traj.states.tobytes(), _checks(traj, system, sig)

        fresh = []
        for sig in signals:
            _signal_plan.cache_clear()
            fresh.append(start(sig))
        _signal_plan.cache_clear()
        for _ in range(2):
            assert [start(sig) for sig in signals] == fresh
        assert _signal_plan.cache_info()[:2] == (0, 2 * len(signals))  # (hits, misses)

    @pytest.mark.parametrize("kind", ["affine", "callable", "mixed"])
    def test_a_start_on_a_cached_plan_equals_one_planned_afresh(self, system, kind):
        # every interval ends in a partial step, and mode 0 holds for half a step only
        sig = signal_from_dwell(1, [0, -1], [0.4013, 5e-4])
        if kind == "callable":
            subs = tuple(dataclasses.replace(sub, affine=None) for sub in system.subsystems)
            system = SwitchedSystem(subs)
        elif kind == "mixed":
            system = _mixed_system(system)[0]
            sig = signal_from_dwell(1, [0, "c", -1], [0.4013, 5e-4, 0.25])

        def start(x0):
            traj = simulate_switched(system, sig, x0, 1.0, STEP)
            events = [(ev.t, ev.prev_mode, ev.next_mode, ev.index, ev.state.tobytes())
                      for ev in traj.switch_events]
            return traj._plan, (traj.states.tobytes(), repr(events), _checks(traj, system, sig))

        _signal_plan.cache_clear()
        plan, _ = start(np.array([0.7, -0.4]))
        # a seed block per affine mode with a full step: modes 1 and -1, not 0
        # (a chunk's operand is its block or a view that starts where it does)
        products = [entry for entry in plan.fill if entry[2] is not None]
        blocks = {op.ctypes.data for op, _, partial in products if not partial}
        assert len(blocks) == (0 if kind == "callable" else 2)
        assert all(not op.flags.writeable for op, _, _ in products)
        cached, warm = start(np.array([-1.2, 0.3]))
        _signal_plan.cache_clear()
        replanned, cold = start(np.array([-1.2, 0.3]))
        assert cached is plan and replanned is not plan
        assert warm == cold

    def test_cache_is_bounded(self, system):
        import tracemalloc

        signals = [
            signal_from_dwell(1, [0, -1, 0], 1.43 + 1e-3 * i, periodic=True)
            for i in range(PLAN_CACHE_SIZE + 4)
        ]

        def sweep():
            for sig in signals:
                traj = simulate_switched(system, sig, np.array([0.7, -0.4]), 6.0, STEP)
                convergence_product(system, sig, traj, 0.05, i_max=3)
                verify_trapping(traj, system, sig, 0.05)
            return len(traj.times)

        sweep()
        assert _signal_plan.cache_info().currsize <= PLAN_CACHE_SIZE
        _signal_plan.cache_clear()
        tracemalloc.start()
        try:
            N = sweep()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            _signal_plan.cache_clear()
        # per plan: times and W's factor, 2 N doubles, and a seed block for
        # each of its 3 modes; the partial-step maps and the rest are per switch
        block = 8 * 3 * 2 * kernels._seed_steps(2)
        full = PLAN_CACHE_SIZE * (8 * N * 2 + 3 * block)
        assert full <= held <= full + PLAN_CACHE_SIZE * 8 * 1024

    def test_integrate_takes_no_slot_of_the_plan_cache(self, system):
        sig = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        x0 = np.array([0.7, -0.4])
        first = simulate_switched(system, sig, x0, 6.0, STEP)
        size = _signal_plan.cache_info().currsize
        for i in range(PLAN_CACHE_SIZE + 1):
            traj = integrate(system[0], x0, 0.0, 0.5 + 0.1 * i, STEP)
            assert traj._plan.signal is not sig
        assert _signal_plan.cache_info().currsize == size
        assert simulate_switched(system, sig, x0 * 2, 6.0, STEP)._plan is first._plan

    def test_a_callers_edit_of_A_reaches_no_plan(self):
        A_w = np.array([[-1.0, 0.5], [-0.5, -1.0]])
        b = np.zeros(2)
        sub = Subsystem(
            label="w", field=lambda x: A_w @ x + b, equilibrium=np.zeros(2), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lambda x: float(x @ x),
            affine=(A_w, b), quadratic=True,
        )
        system, sig, x0 = SwitchedSystem((sub,)), SwitchingSignal(0.0, "w"), np.array([1.0, 1.0])
        before = simulate_switched(system, sig, x0, 0.5, STEP)
        A_w[0, 0] = -3.0  # the caller's array, edited in place after construction
        kept_A, kept_b = sub.affine
        assert kept_A is not A_w and kept_A[0, 0] == -1.0 and kept_b is not b
        assert not kept_A.flags.writeable and not kept_b.flags.writeable
        with pytest.raises(ValueError):
            kept_A[0, 0] = -3.0
        cached = simulate_switched(system, sig, x0, 0.5, STEP)
        assert cached._plan is before._plan
        fresh = simulate_switched(SwitchedSystem((sub,)), sig, x0, 0.5, STEP)
        assert fresh._plan is not before._plan
        assert cached.states.tobytes() == fresh.states.tobytes() == before.states.tobytes()

    def test_threads_sweeping_one_plan_agree_with_a_serial_run(self, system):
        import sys
        import threading

        starts = [np.array([0.7, -0.4]) * (1 + 0.2 * i) for i in range(5)]

        def sweep(sig):
            return [
                _checks(simulate_switched(system, sig, x0, 6.0, STEP), system, sig)
                for x0 in starts
            ]

        serial = sweep(signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True))
        # a signal of its own, so the threads also race to build the plan
        shared = signal_from_dwell(1, [0, -1, 0], 1.43, periodic=True)
        results = [None] * 4

        def worker(i):
            results[i] = [sweep(shared) for _ in range(2)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial, serial]] * len(results)
