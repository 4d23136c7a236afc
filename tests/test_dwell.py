import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchdwell import (
    ClassKFn,
    Subsystem,
    epsilon0_search,
    global_dwell,
    local_dwell,
    mu_bound,
    pairwise_dwell,
    triangle_gap,
)
from switchdwell.core import SwitchedSystem
from switchdwell.dwell import pair_mu
from switchdwell.errors import (
    EmptyConfiguration,
    HeterogeneousCertificates,
    InvalidEpsilon,
    InvalidMu,
    NonfiniteState,
    NoThreshold,
    UnsupportedCertificate,
)
from switchdwell.prebuilt import demo_subsystem

# frozen high-precision references for the demo system at eps = 0.05
T_12 = 1.4260624389053681
T_13 = 1.9912324459391175
MU = 53.649110640673517
T_GLOB_LOWER = math.log(MU) / 2.0
EPS0 = 0.72855339059327376


class TestPairwiseDwell:
    def test_reference_values(self, system, eps):
        assert pairwise_dwell(eps, system[1], system[0]) == pytest.approx(T_12, rel=1e-12)
        assert pairwise_dwell(eps, system[0], system[-1]) == pytest.approx(T_12, rel=1e-12)
        assert pairwise_dwell(eps, system[1], system[-1]) == pytest.approx(T_13, rel=1e-12)

    def test_self_transition_is_free(self, system, eps):
        assert pairwise_dwell(eps, system[0], system[0]) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form(self, system, eps):
        sub_from, sub_to = system[1], system[0]
        dist = np.linalg.norm(sub_to.equilibrium - sub_from.equilibrium)
        expected = -math.log(eps / (dist + math.sqrt(eps)) ** 2) / 2.0
        assert pairwise_dwell(eps, sub_from, sub_to) == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_eps(self, system):
        with pytest.raises(InvalidEpsilon):
            pairwise_dwell(0.0, system[1], system[0])

    @given(eps=st.floats(1e-4, 10.0))
    @settings(max_examples=30)
    def test_monotone_decreasing_in_eps(self, eps):
        # a larger target region needs no more travel time
        a, b = demo_subsystem(1), demo_subsystem(0)
        assert pairwise_dwell(2.0 * eps, a, b) <= pairwise_dwell(eps, a, b)


class TestLocalDwell:
    def test_supremum_over_transitions(self, system, eps):
        table = local_dwell(eps, system, [(1, 0), (0, -1)])
        assert table.t_loc == pytest.approx(T_12, rel=1e-12)
        assert table.entries[(1, 0)] == table.entries[(0, -1)]
        assert table.raw_entries[(1, 0)] == table.entries[(1, 0)]

    def test_to_dict(self, system, eps):
        doc = local_dwell(eps, system, [(1, -1)]).to_dict()
        assert doc["t_loc"] == pytest.approx(T_13, rel=1e-12)
        assert doc["entries"][0]["from"] == "1"

    def test_empty_transitions_rejected(self, system, eps):
        with pytest.raises(ValueError):
            local_dwell(eps, system, [])


class TestMuBound:
    def test_closed_form_reference(self, system, eps):
        assert mu_bound(eps, system) == pytest.approx(MU, rel=1e-12)

    def test_sampled_approaches_closed_form_from_below(self, system, eps):
        closed = mu_bound(eps, system, mode="closed_form")
        sampled = mu_bound(eps, system, mode="sampled", n_samples=200_000, seed=42)
        assert sampled <= closed * (1 + 1e-9)
        assert sampled == pytest.approx(closed, rel=0.02)

    def test_sampled_is_deterministic(self, system, eps):
        a = mu_bound(eps, system, mode="sampled", n_samples=5000, seed=3)
        b = mu_bound(eps, system, mode="sampled", n_samples=5000, seed=3)
        assert a == b

    def test_pair_bound_that_overflows_is_inf(self):
        assert pair_mu(1e-320, 1.0) == math.inf
        assert pair_mu(0.05, 1.0) == (1.0 + 1.0 / math.sqrt(0.05)) ** 2

    def test_closed_form_needs_quadratic(self, eps):
        subs = tuple(
            dataclasses.replace(demo_subsystem(u), quadratic=False) for u in (1, 0)
        )
        with pytest.raises(UnsupportedCertificate):
            mu_bound(eps, SwitchedSystem(subsystems=subs), mode="closed_form")

    def test_unknown_mode_rejected(self, system, eps):
        with pytest.raises(ValueError):
            mu_bound(eps, system, mode="exact")

    def test_sampled_nan_ratio_raises(self, eps):
        # V_u = c_u |x - x_u|^2, and ``hole`` where ``inside(x)``; dropping mode 1's
        # NaN samples read 26.17, not 56.48, and a shorter global dwell with it
        def mode(label, centre, c, hole=None, inside=lambda x: x @ x < 0.2):
            x_u = np.array(centre)

            def lyapunov(x):
                return hole if hole is not None and inside(x) else c * float((x - x_u) @ (x - x_u))

            return Subsystem(
                label=label, field=lambda x: x_u - x, equilibrium=x_u, decay_rate=2.0,
                alpha=ClassKFn(c, 2.0), beta=ClassKFn(c, 2.0), lyapunov=lyapunov,
            )

        def mu(*modes):
            return mu_bound(eps, SwitchedSystem(subsystems=modes), mode="sampled", n_samples=2000)

        assert mu(mode(0, [0, 0], 1.0), mode(1, [1, 0], 2.0)) == pytest.approx(56.48, abs=0.01)
        assert mu(mode(0, [0, 0], 1.0), mode(1, [1, 0], 2.0, math.inf)) == math.inf
        with pytest.raises(NonfiniteState, match="a = 1, b = 0"):
            mu(mode(0, [0, 0], 1.0), mode(1, [1, 0], 2.0, math.nan))
        with pytest.raises(NonfiniteState, match="NaN V sampled for mode 1"):
            mu(mode(1, [1, 0], 2.0, math.nan), mode(0, [0, 0], 1.0))
        above = lambda x: x[1] > 1.0  # noqa: E731  holds neither equilibrium; inf / inf there
        with np.errstate(invalid="ignore"), pytest.raises(NonfiniteState, match="a = 1, b = 0"):
            mu(mode(0, [0, 0], 1.0, math.inf, above), mode(1, [1, 0], 2.0, math.inf, above))


class TestGlobalDwell:
    def test_strictly_above_the_bound(self, eps):
        t = global_dwell(eps, MU, 2.0)
        assert t > T_GLOB_LOWER
        assert t == pytest.approx(1.01 * T_GLOB_LOWER, rel=1e-12)

    def test_mu_one_gives_zero(self, eps):
        assert global_dwell(eps, 1.0, 2.0) == 0.0

    def test_invalid_mu(self, eps):
        with pytest.raises(InvalidMu):
            global_dwell(eps, 0.5, 2.0)


class TestTriangleGap:
    def test_two_computations_agree(self, system, eps):
        ta = triangle_gap(eps, system[1], system[0], system[-1])
        assert ta.gap == pytest.approx(ta.gap_via_constant, rel=1e-10)
        assert ta.gap < 0
        assert ta.to_dict()["detour_longer"] is True

    def test_matches_pairwise_sum(self, system, eps):
        ta = triangle_gap(eps, system[1], system[0], system[-1])
        direct = pairwise_dwell(eps, system[1], system[-1])
        detour = pairwise_dwell(eps, system[1], system[0]) + pairwise_dwell(
            eps, system[0], system[-1]
        )
        assert ta.gap == pytest.approx(direct - detour, rel=1e-12)

    def test_eps0_from_the_geometry(self, system, eps):
        assert triangle_gap(eps, system[1], system[0], system[-1]).eps0 == pytest.approx(
            EPS0, rel=5e-6
        )
        # the detour mode sits too far out: r > 2d leaves the search domain
        far = triangle_gap(eps, demo_subsystem(0), demo_subsystem(9), demo_subsystem(0))
        assert far.eps0 is None and far.to_dict()["eps0"] is None

    def test_heterogeneous_certificates_rejected(self, system, eps):
        import dataclasses

        odd = dataclasses.replace(demo_subsystem(0), decay_rate=1.0)
        with pytest.raises(HeterogeneousCertificates):
            triangle_gap(eps, system[1], odd, system[-1])


class TestEpsilon0Search:
    def test_reference_configuration(self):
        alpha = beta = ClassKFn(1.0, 2.0)
        got = epsilon0_search(1.0, math.sqrt(2) / 2, alpha, beta, 2.0)
        assert got == pytest.approx(EPS0, rel=5e-6)

    def test_demo_eps_is_below_threshold(self, system, eps):
        # consistency: at eps = 0.05 < eps0 the demo detour is indeed longer
        assert eps < EPS0
        assert triangle_gap(eps, system[1], system[0], system[-1]).gap < 0

    def test_no_crossing_raises_no_threshold(self):
        # the gap stays negative up to the grid's end, 1e6: that end is no threshold
        with pytest.raises(NoThreshold, match="whole grid"):
            epsilon0_search(1.0, 1.5, _K, _K, 2.0)

    def test_impossible_geometry(self):
        alpha = beta = ClassKFn(1.0, 2.0)
        with pytest.raises(EmptyConfiguration):
            epsilon0_search(1.0, 3.0, alpha, beta, 2.0)

    def test_invalid_parameters(self):
        alpha = beta = ClassKFn(1.0, 2.0)
        with pytest.raises(ValueError):
            epsilon0_search(0.0, 0.5, alpha, beta, 2.0)
        with pytest.raises(ValueError):
            epsilon0_search(1.0, 0.5, alpha, beta, 0.0)


_K = ClassKFn(1.0, 2.0)
_K4 = ClassKFn(1.0, 4.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda s: global_dwell(0.05, math.nan, 2.0), InvalidMu),
        (lambda s: global_dwell(0.05, 2.0, math.nan), ValueError),
        (lambda s: epsilon0_search(math.nan, 0.5, _K, _K, 2.0), ValueError),
        (lambda s: epsilon0_search(1.0, math.nan, _K, _K, 2.0), ValueError),
        (lambda s: epsilon0_search(1.0, 0.5, _K, _K, math.nan), ValueError),
        (lambda s: mu_bound(0.05, s, mode="sampled", n_samples=0), ValueError),
        (lambda s: pairwise_dwell(math.inf, s[1], s[0]), InvalidEpsilon),
        (lambda s: local_dwell(math.inf, s, [(1, 0)]), InvalidEpsilon),
        # beta(0 + alpha^-1(eps)) = (1e-150)^4 underflows to 0
        (
            lambda s: pairwise_dwell(1e-300, s[0], dataclasses.replace(s[0], alpha=_K4, beta=_K4)),
            InvalidEpsilon,
        ),
    ],
    ids=[
        "global_nan_mu",
        "global_nan_k_min",
        "eps0_nan_d",
        "eps0_nan_r",
        "eps0_nan_k",
        "mu_no_samples",
        "pairwise_inf_eps",
        "local_inf_eps",
        "pairwise_beta_underflows",
    ],
)
def test_out_of_domain_numbers_are_rejected(system, call, error):
    # each returned a number before: nan, 1e6, 1.0, 53.5 or 0.0
    with pytest.raises(error):
        call(system)


@pytest.mark.parametrize("radius", [0.1, 0.2])
def test_sampled_mu_needs_samples_outside_every_region(system, eps, radius):
    # alpha^-1(0.05) = 0.2236: a V of mode 1 that stops growing at a smaller
    # radius keeps every sample inside its region, and the bound would read
    # 1.0 as if that mode had no ratio
    e = system[1].equilibrium
    flat = dataclasses.replace(
        system[1],
        quadratic=False,
        lyapunov=lambda x: min(float(np.linalg.norm(x - e)), radius) ** 2,
    )
    low = SwitchedSystem(subsystems=(flat,) + system.subsystems[1:])
    with pytest.raises(ValueError, match=r"mode 1 .*alpha\^-1\(eps\) = 0\.2236"):
        mu_bound(eps, low, mode="sampled", n_samples=2000)
