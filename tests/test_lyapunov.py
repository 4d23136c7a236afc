import dataclasses

import numpy as np
import pytest

from switchdwell import (
    ClassKFn,
    Subsystem,
    check_certificate,
    in_region,
    make_affine_subsystem,
    region_boundary_points,
    v_eval,
)
from switchdwell.errors import UnsupportedDimension
from switchdwell.lyapunov import DECAY_TOL, MEMBERSHIP_TOL

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

    V from ``lyapunov``, the gradient by central differences with step
    1e-6 * (1 + ||x||), the decay tolerance scaled by |dV/dt|.
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
        g = np.empty_like(x)
        for j in range(x.shape[0]):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            g[j] = (sub.lyapunov(xp) - sub.lyapunov(xm)) / (2.0 * h)
        deriv = float(g @ np.asarray(sub.field(x), dtype=float))
        slack = deriv + sub.decay_rate * v
        max_slack = max(max_slack, slack)
        if slack > DECAY_TOL * (1.0 + abs(deriv)):
            decay.append((x, deriv, -sub.decay_rate * v))
    return sandwich, decay, max_slack


def certificate_points(sub, box, n_samples, seed):
    from scipy.stats import qmc

    sampler = qmc.Halton(d=sub.dimension, scramble=True, seed=seed)
    return qmc.scale(sampler.random(n_samples), *box)


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
        np.testing.assert_array_equal(sub.grad_batch(X), 2.0 * (X - sub.equilibrium))

    def test_callable_gradient_is_central_difference(self, system):
        sub = dataclasses.replace(system[0], quadratic=False, affine=None)
        X = np.random.default_rng(3).standard_normal((50, 2))
        np.testing.assert_allclose(sub.grad_batch(X), 2.0 * (X - sub.equilibrium), atol=1e-8)

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


class TestBoundaryPoints:
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
