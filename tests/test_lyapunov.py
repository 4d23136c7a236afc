import dataclasses
import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from switchdwell import (
    ClassKFn,
    Subsystem,
    check_certificate,
    in_region,
    lyapunov,
    make_affine_subsystem,
    region_boundary_points,
    v_eval,
)
from switchdwell.errors import InvalidEpsilon, NonfiniteState, UnsupportedDimension
from switchdwell.lyapunov import DECAY_TOL, MEMBERSHIP_TOL, _halton, _halton_rows, _shift

BOX2 = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))


def scaled_quadratic_subsystem(scale=2.0):
    """Non-quadratic-flagged mode with V = scale * ||x||^2 (contracting field -x)."""
    return Subsystem(
        label="scaled",
        field=lambda x: -x,
        equilibrium=np.zeros(2),
        decay_rate=2.0,
        alpha=ClassKFn(1.0, 2.0),
        beta=ClassKFn(1.0, 2.0),
        lyapunov=lambda x: scale * float(x @ x),
    )


def random_affine_subsystem(rng, n):
    """Affine mode with a random contracting A and the identity-quadratic V."""
    g = rng.standard_normal((n, n))
    A = -2.0 * np.eye(n) + 0.5 * (g - g.T)
    return make_affine_subsystem(A, rng.standard_normal(n), "r")


def per_point_certificate(sub, pts):
    """Reference: the sandwich and decay tests one sample at a time.

    V from ``lyapunov``, dV/dt by one central difference along f with step
    h = 1e-6 * (1 + ||x||): s = h f/|f|, with |f| taken after dividing f by
    its largest |f_j| (a zero f gives a zero step); the decay tolerance
    scaled by |dV/dt|.
    """
    sandwich, decay, max_slack = [], [], float("-inf")
    for x in pts:
        # r stays a NumPy scalar: Python's float ** can round s**2 differently
        # from NumPy's power in the last bit
        r = np.linalg.norm(x - sub.equilibrium)
        v = float(sub.lyapunov(x))
        lo, hi = sub.alpha.eval(r), sub.beta.eval(r)
        if v < lo - MEMBERSHIP_TOL or v > hi + MEMBERSHIP_TOL:
            sandwich.append((x, v, lo, hi))
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        f = np.asarray(sub.field(x), dtype=float)
        top = float(np.abs(f).max())
        u = f / top if top > 0 else f
        norm_u = float(np.linalg.norm(u))
        s = u * (h / norm_u) if norm_u > 0 else u
        deriv = (sub.lyapunov(x + s) - sub.lyapunov(x - s)) / (2.0 * h) * (norm_u * top)
        slack = deriv + sub.decay_rate * v
        max_slack = max(max_slack, slack)
        if slack > DECAY_TOL * (1.0 + abs(deriv)):
            decay.append((x, deriv, -sub.decay_rate * v))
    return sandwich, decay, max_slack


def certificate_points(sub, box, n_samples, seed):
    lo, hi = box
    return _halton(sub.dimension, n_samples, seed) * (hi - lo) + lo


def assert_same_violations(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g[0], e[0])
        assert g[1:] == e[1:]


class TestBatchEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quadratic_closed_forms_match_per_point(self, n):
        rng = np.random.default_rng(n)
        sub = random_affine_subsystem(rng, n)
        X = rng.standard_normal((500, n)) * 3.0
        v = sub.v_batch(X)
        assert v.shape == (500,)
        assert all(v[i] == sub.lyapunov(x) for i, x in enumerate(X))
        # the fixed order: (x_1 - e_1)^2 + (x_2 - e_2)^2 + ..., in plain floats
        rows = (X - sub.equilibrium).tolist()
        ref = [functools.reduce(lambda acc, d: acc + d * d, row, 0.0) for row in rows]
        assert v.tolist() == ref
        F = rng.standard_normal((500, n))
        assert sub.lie_batch(X, F).tobytes() == np.vecdot(2.0 * (X - sub.equilibrium), F).tobytes()

    def test_callable_gradient_is_central_difference(self, system):
        sub = dataclasses.replace(system[0], quadratic=False, affine=None)
        rng = np.random.default_rng(3)
        X, F = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        expected = np.vecdot(2.0 * (X - sub.equilibrium), F)
        np.testing.assert_allclose(sub.lie_batch(X, F), expected, atol=1e-8)
        # a zero field row gets a zero step and a derivative of exactly 0
        F[7] = 0.0
        assert sub.lie_batch(X, F)[7] == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind", ["weighted_quadratic", "quartic"])
    def test_callable_lie_derivative_is_accurate(self, n, kind):
        rng = np.random.default_rng(10 * n)
        x_u = rng.standard_normal(n)
        g = rng.standard_normal((n, n))
        P = g @ g.T + n * np.eye(n)  # SPD, not a multiple of the identity
        if kind == "weighted_quadratic":
            def lyapunov(x):
                d = x - x_u
                return float(d @ P @ d)

            def grad(d):
                return 2.0 * d @ P
        else:
            def lyapunov(x):
                dd = float((x - x_u) @ (x - x_u))
                return dd + dd * dd

            def grad(d):
                return (2.0 + 4.0 * np.vecdot(d, d))[:, None] * d
        sub = Subsystem(
            label=kind, field=lambda x: -(x - x_u), equilibrium=x_u, decay_rate=1.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov,
        )
        X = x_u + rng.uniform(-3.0, 3.0, (200, n))
        S = g - g.T  # a rotation part, so F is not parallel to x - x_u
        F = -(X - x_u) + 0.3 * (X - x_u) @ S.T
        expected = np.vecdot(grad(X - x_u), F)
        assert np.all(expected < 0)  # bounded away from 0, so relative error is meaningful
        np.testing.assert_allclose(sub.lie_batch(X, F), expected, rtol=1e-7, atol=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_callable_certificate_calls_v_three_times_per_sample(self, n):
        calls = {"V": 0, "f": 0}

        def lyapunov(x):
            calls["V"] += 1
            return float(x @ x)

        def field(x):
            calls["f"] += 1
            return -x

        sub = Subsystem(
            label="counted", field=field, equilibrium=np.zeros(n), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov,
        )
        calls.update(V=0, f=0)
        report = check_certificate(sub, (np.full(n, -2.0), np.full(n, 2.0)), 300, seed=4)
        assert report.passed
        assert calls == {"V": 3 * 300, "f": 300}  # 2n + 1 V calls per sample before

    @pytest.mark.parametrize("n", [2, 3])
    def test_nonfinite_field_raises_before_v_leaves_the_samples(self, n):
        box = (np.full(n, -2.0), np.full(n, 2.0))
        bad = _halton(n, 100, 6)[37] * 4.0 - 2.0
        seen = []

        def lyapunov(x):
            seen.append(np.isfinite(x).all())
            return float(x @ x)

        def field(x):
            return np.full(n, np.nan) if np.array_equal(x, bad) else -x

        sub = Subsystem(
            label="leaky", field=field, equilibrium=np.zeros(n), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov,
        )
        seen.clear()
        with pytest.raises(NonfiniteState, match="non-finite V, bound or derivative sampled for mode 'leaky'"):
            check_certificate(sub, box, 100, seed=6)
        assert len(seen) == 100 and all(seen)  # V ran on the samples only

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_nonfinite_field_in_a_later_block_raises_before_v_leaves_its_samples(
        self, n, monkeypatch
    ):
        monkeypatch.setattr(lyapunov, "_SAMPLE_BLOCK", 16)
        box = (np.full(n, -2.0), np.full(n, 2.0))
        bad = _halton(n, 100, 6)[37] * 4.0 - 2.0  # in the third block, rows 32 to 47
        seen = []

        def lyapunov_fn(x):
            seen.append(np.isfinite(x).all())
            return float(x @ x)

        def field(x):
            return np.full(n, np.nan) if np.array_equal(x, bad) else -x

        sub = Subsystem(
            label="leaky", field=field, equilibrium=np.zeros(n), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov_fn,
        )
        seen.clear()
        with pytest.raises(NonfiniteState, match="non-finite V, bound or derivative sampled for mode 'leaky'"):
            check_certificate(sub, box, 100, seed=6)
        # two blocks checked in full, three V calls a sample; then V on the third's samples only
        assert len(seen) == 2 * 16 * 3 + 16 and all(seen)

    def test_huge_samples_raise_before_v_sees_a_nonfinite_argument(self):
        # past |x| ~ 1e154 the difference step 1e-6 (1 + |x|) overflows; 100 of
        # V's 150 calls got an inf or NaN argument before
        seen = []

        def lyapunov(x):
            seen.append(bool(np.isfinite(x).all()))
            return float(x @ x)

        sub = Subsystem(
            label="huge", field=lambda x: -x, equilibrium=np.zeros(2), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov,
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonfiniteState):
            check_certificate(sub, (np.full(2, -1e160), np.full(2, 1e160)), 50, seed=1)
        assert seen.count(False) == 0 and len(seen) >= 50

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: dataclasses.replace(s[0], quadratic=False, affine=None),
            # V = 2||x - x_u||^2 breaks the sandwich; k = 3 overclaims the decay
            lambda s: dataclasses.replace(
                s[0],
                quadratic=False,
                affine=None,
                decay_rate=3.0,
                lyapunov=lambda x: 2.0 * float((x - s[0].equilibrium) @ (x - s[0].equilibrium)),
            ),
        ],
        ids=["passing", "violating"],
    )
    def test_callable_certificate_matches_per_point_loop(self, system, make):
        sub = make(system)
        report = check_certificate(sub, BOX2, 400, seed=11)
        sandwich, decay, max_slack = per_point_certificate(
            sub, certificate_points(sub, BOX2, 400, seed=11)
        )
        assert_same_violations(report.sandwich_violations, sandwich)
        assert_same_violations(report.decay_violations, decay)
        assert report.max_decay_slack == max_slack

    def test_quadratic_3d_certificate_uses_closed_form(self):
        sub = random_affine_subsystem(np.random.default_rng(0), 3)
        calls = []

        def counted(x):
            calls.append(1)
            d = x - sub.equilibrium
            return float(d @ d)

        counted_sub = dataclasses.replace(sub, lyapunov=counted)
        calls.clear()
        box = (np.full(3, -2.0), np.full(3, 2.0))
        report = check_certificate(counted_sub, box, 1000, seed=5)
        assert calls == []  # V and its gradient came from the closed forms
        assert report.passed
        assert report.max_decay_slack <= 1e-12


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


@functools.cache
def radical_inverses(base, n):
    """Reference: the radical inverses of 0 ... n-1 in ``base``, one index and one digit at a time."""
    out = []
    for i in range(n):
        r, f = 0.0, 1.0 / base
        while i:
            i, digit = divmod(i, base)
            r += digit * f
            f /= base
        out.append(r)
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 10000])
@pytest.mark.parametrize("seed", [0, 1, 42, 12345, 2**31 - 1, 987654321])
@pytest.mark.parametrize("d", range(1, 9))
def test_halton_is_scipy_scrambled_halton(d, seed, n):
    """scipy's Halton points, randomised by the seed's shift in place of digit scrambling.

    The unscrambled points of ``qmc.Halton`` and the per-point reference are
    both the same bits as the shift-free sequence.
    """
    from scipy.stats import qmc

    rng = random.Random(seed)
    shifts = [rng.random() for _ in range(d)]
    expected = (qmc.Halton(d=d, scramble=False).random(n) + shifts) % 1.0
    cols = [[(r + s) % 1.0 for r in radical_inverses(p, n)] for p, s in zip(PRIMES, shifts)]
    assert np.array(cols).T.tobytes() == expected.tobytes()
    assert _halton(d, n, seed).tobytes() == expected.tobytes()


def test_smaller_sets_are_prefixes():
    # every n up to 200 puts the largest index on either side of a power of
    # 2, 3 and 5, where it gains a digit
    full = _halton(3, 200, 9)
    for n in range(1, 200):
        assert _halton(3, n, 9).tobytes() == full[:n].tobytes(), n


def test_row_ranges_are_the_rows_of_the_whole_set():
    # ranges that start and end on either side of a power of 2, 3 and 5
    full = _halton(3, 200, 9)
    for lo, hi in [(0, 1), (0, 200), (1, 2), (7, 9), (8, 27), (26, 126), (125, 200), (199, 200)]:
        assert _halton_rows(_shift(3, 9), lo, hi).tobytes() == full[lo:hi].tobytes(), (lo, hi)


def test_base_two_is_the_van_der_corput_sequence():
    shift = random.Random(5).random()
    vdc = np.array([0.0, 0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875])
    assert _halton(1, 8, 5)[:, 0].tobytes() == ((vdc + shift) % 1.0).tobytes()


@pytest.mark.parametrize("d, n", [(1, 1), (2, 10_000), (8, 300)])
def test_halton_points_lie_in_the_unit_cube(d, n):
    pts = _halton(d, n, 7)
    assert pts.shape == (n, d)
    assert ((pts >= 0.0) & (pts < 1.0)).all()


@pytest.mark.parametrize(
    "seed",
    [0, 1, 42, 2**32 + 5, 2**64 + 3, 2**127, 2**160 + 9],
    ids=["0", "1", "42", "2**32+5", "2**64+3", "2**127", "2**160+9"],
)
def test_seeds_of_any_size_shift_the_points(seed):
    pts = _halton(3, 50, seed)
    # index 0 has radical inverse 0, so the first point is the shift itself
    rng = random.Random(seed)
    assert pts[0].tolist() == [rng.random() for _ in range(3)]
    assert _halton(3, 50, seed).tobytes() == pts.tobytes()
    assert _halton(3, 50, seed + 1).tobytes() != pts.tobytes()


def test_other_seeds_draw_other_sets():
    sets = {_halton(2, 500, seed).tobytes() for seed in (0, 1, 2**160 + 9)}
    assert len(sets) == 3


def test_pcg_rejects_a_negative_seed(system):
    """A negative sample seed is refused before any point is drawn."""
    for seed in (-1, np.int64(-5), -(2**70)):
        with pytest.raises(ValueError, match="non-negative"):
            check_certificate(system[1], BOX2, 10, seed=seed)


def test_certificate_seeds_take_numpy_integers(system):
    overclaimed = dataclasses.replace(system[1], decay_rate=3.0)
    reports = [check_certificate(overclaimed, BOX2, 200, seed=s).to_dict() for s in (5, np.int64(5))]
    assert reports[0] == reports[1] and reports[0]["n_decay_violations"] > 0


class TestEvaluation:
    def test_v_eval(self, system):
        assert v_eval(system[1], [0.0, 1.0]) == 0.0
        assert v_eval(system[1], [1.0, 1.0]) == pytest.approx(1.0)

    def test_in_region_tolerance(self, system, eps):
        boundary = np.array([0.0, 1.0 + np.sqrt(eps)])
        assert in_region(system[1], eps, boundary)
        just_outside = np.array([0.0, 1.0 + np.sqrt(eps + 1e-10)])
        assert in_region(system[1], eps, just_outside)  # inside the 1e-9 band
        assert not in_region(system[1], eps, just_outside, strict=True)
        assert not in_region(system[1], eps, [0.0, 2.0])

    def test_in_region_rejects_bad_eps(self, system):
        with pytest.raises(ValueError):
            in_region(system[1], 0.0, [0.0, 1.0])

    def test_in_region_rejects_nan_eps(self, system):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="eps must be positive") as info:
                in_region(system[1], bad, [0.0, 1.0])
            assert info.type is InvalidEpsilon


class TestCheckCertificate:
    def test_demo_modes_pass(self, system):
        for sub in system.subsystems:
            report = check_certificate(sub, BOX2, 2000, seed=42)
            assert report.passed
            assert report.samples_tested == 2000
            # the decay inequality is tight: grad V . f = -2 V exactly
            assert abs(report.max_decay_slack) < 1e-9

    def test_overclaimed_decay_rate_fails(self, system):
        fast = dataclasses.replace(system[1], decay_rate=3.0)
        report = check_certificate(fast, BOX2, 2000, seed=42)
        assert not report.passed
        assert len(report.decay_violations) > 0
        assert report.max_decay_slack > 0

    def test_sandwich_violation_detected(self):
        report = check_certificate(scaled_quadratic_subsystem(2.0), BOX2, 500, seed=1)
        assert len(report.sandwich_violations) > 0
        # V = 2||x||^2 still decays at rate 2, so only the sandwich fails
        assert len(report.decay_violations) == 0

    def test_generic_path_matches_fast_path(self, system):
        slow = dataclasses.replace(system[0], affine=None, quadratic=False)
        fast = check_certificate(system[0], BOX2, 300, seed=7)
        generic = check_certificate(slow, BOX2, 300, seed=7)
        assert fast.passed and generic.passed
        assert generic.max_decay_slack == pytest.approx(fast.max_decay_slack, abs=1e-5)

    def test_report_serializes(self, system):
        doc = check_certificate(system[1], BOX2, 100, seed=0).to_dict()
        assert doc["passed"] is True
        assert doc["n_decay_violations"] == 0

    def test_invalid_inputs(self, system):
        with pytest.raises(ValueError):
            check_certificate(system[1], BOX2, 0, seed=0)
        with pytest.raises(ValueError):
            check_certificate(system[1], (BOX2[1], BOX2[0]), 10, seed=0)

    def test_nonfinite_samples_are_numeric_failures(self, system):
        # V overflows at 1e200; at 1e308 the width hi - lo, and so every point, does
        for half in (1e200, 1e308):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonfiniteState, match="mode 1"):
                    box = (np.full(2, -half), np.full(2, half))
                    check_certificate(system[1], box, 50, seed=0)


def _report_bits(report):
    return report.passed, report.max_decay_slack.hex(), report.samples_tested


class TestCertificateBlocks:
    @pytest.mark.parametrize("block", [7, 300, 10**6], ids=["7", "300", "one_block"])
    @pytest.mark.parametrize("kind", ["affine", "callable", "violating"])
    def test_any_block_size_gives_the_report_of_one_block(self, system, monkeypatch, kind, block):
        sub, samples = {
            "affine": (system[0], 2000),
            "callable": (dataclasses.replace(system[-1], affine=None, quadratic=False), 700),
            # the k = 3 injection of the acceptance test: every sample violates the decay
            "violating": (dataclasses.replace(system[1], decay_rate=3.0), 3000),
        }[kind]
        whole = check_certificate(sub, BOX2, samples, seed=42)
        monkeypatch.setattr(lyapunov, "_SAMPLE_BLOCK", block)
        blocked = check_certificate(sub, BOX2, samples, seed=42)
        assert _report_bits(blocked) == _report_bits(whole)
        assert_same_violations(blocked.sandwich_violations, whole.sandwich_violations)
        assert_same_violations(blocked.decay_violations, whole.decay_violations)
        assert whole.passed == (kind != "violating")
        assert len(whole.decay_violations) == (samples if kind == "violating" else 0)

    def test_a_check_holds_one_block_whatever_its_samples(self, system):
        peaks = []
        for samples in (20_000, 200_000):
            tracemalloc.start()
            try:
                assert check_certificate(system[1], BOX2, samples, seed=3).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # holding every sample at once, the peak grew by about 19 MB; a block at a time, by nothing
        assert peaks[1] - peaks[0] < 0.3e6, peaks


class TestBoundaryPoints:
    def test_nan_eps_is_rejected(self, system):
        for sub in (system[0], dataclasses.replace(system[0], quadratic=False)):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="eps must be positive") as info:
                    region_boundary_points(sub, bad, 32)
                assert info.type is InvalidEpsilon

    def test_quadratic_circle(self, system, eps):
        pts = region_boundary_points(system[0], eps, 32)
        assert pts.shape == (32, 2)
        radii = np.linalg.norm(pts - system[0].equilibrium, axis=1)
        np.testing.assert_allclose(radii, np.sqrt(eps), rtol=1e-12)

    def test_nonquadratic_bisection(self, eps):
        sub = scaled_quadratic_subsystem(2.0)
        pts = region_boundary_points(sub, eps, 16)
        for p in pts:
            assert sub.lyapunov(p) == pytest.approx(eps, rel=1e-9)

    def test_bisection_stops_when_the_bracket_cannot_shrink(self, eps):
        sub = scaled_quadratic_subsystem(2.0)
        calls = []

        def counted(x):
            calls.append(None)
            return sub.lyapunov(x)

        counted_sub = dataclasses.replace(sub, lyapunov=counted)
        calls.clear()
        pts = region_boundary_points(counted_sub, eps, 16)
        # the full 200-iteration bisection ends on the same floats
        ref = np.empty((16, 2))
        for i, th in enumerate(np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)):
            d = np.array([np.cos(th), np.sin(th)])
            hi = sub.alpha.inverse(eps) * 2.0 + 1.0
            while sub.lyapunov(sub.equilibrium + hi * d) < eps:
                hi *= 2.0
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if sub.lyapunov(sub.equilibrium + mid * d) < eps:
                    lo = mid
                else:
                    hi = mid
            ref[i] = sub.equilibrium + 0.5 * (lo + hi) * d
        assert pts.tobytes() == ref.tobytes()
        assert len(calls) <= 16 * 60

    def test_v_below_eps_on_every_radius_is_a_numeric_failure(self):
        calls = []

        def lyapunov(x):
            calls.append(None)
            if len(calls) > 10_000:
                raise RuntimeError("the radial search did not end")
            with np.errstate(over="ignore"):  # |x|^2 overflows before the radius does
                return 1.0 - math.exp(-float(x @ x))

        sub = Subsystem(
            label="bounded", field=lambda x: -x, equilibrium=np.zeros(2), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov,
        )
        with pytest.raises(NonfiniteState, match="V stays below eps = 2.0 for mode 'bounded' on the ray at angle 0.0"):
            region_boundary_points(sub, 2.0, 8)

    def test_nan_v_is_a_numeric_failure(self):
        def lyapunov(x):
            v = float(x @ x)
            return v if v < 0.5 else math.nan

        sub = Subsystem(
            label="partial", field=lambda x: -x, equilibrium=np.zeros(2), decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0), beta=ClassKFn(1.0, 2.0), lyapunov=lyapunov,
        )
        # it returned points at radius 0.7071, where V is NaN
        with pytest.raises(NonfiniteState, match="V is NaN for mode 'partial' on the ray at angle 0.0"):
            region_boundary_points(sub, 0.8, 8)

    def test_infinite_v_counts_as_outside(self, eps):
        sub = dataclasses.replace(
            scaled_quadratic_subsystem(2.0),
            lyapunov=lambda x: 2.0 * float(x @ x) if x @ x < 1.0 else math.inf,
        )
        pts = region_boundary_points(sub, eps, 16)
        for p in pts:
            assert sub.lyapunov(p) == pytest.approx(eps, rel=1e-9)

    def test_quadratic_high_dimension_on_sphere(self):
        sub = Subsystem(
            label="3d",
            field=lambda x: -x,
            equilibrium=np.zeros(3),
            decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0),
            beta=ClassKFn(1.0, 2.0),
            lyapunov=lambda x: float(x @ x),
            quadratic=True,
        )
        pts = region_boundary_points(sub, 0.25, 10)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 0.5, rtol=1e-12)

    def test_nonquadratic_needs_2d(self):
        sub = Subsystem(
            label="3d",
            field=lambda x: -x,
            equilibrium=np.zeros(3),
            decay_rate=2.0,
            alpha=ClassKFn(1.0, 2.0),
            beta=ClassKFn(1.0, 2.0),
            lyapunov=lambda x: float(x @ x),
        )
        with pytest.raises(UnsupportedDimension):
            region_boundary_points(sub, 0.25, 10)

    def test_invalid_inputs(self, system):
        with pytest.raises(ValueError):
            region_boundary_points(system[0], -1.0, 10)
        with pytest.raises(ValueError):
            region_boundary_points(system[0], 0.05, 2)
