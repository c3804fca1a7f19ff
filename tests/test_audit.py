import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from shufflebandit.audit import (DEFAULT_SUPPORT_CAP, hinge_ranges,
                                 hockey_stick, noise_distribution,
                                 shifted_hockey_stick)
from shufflebandit.mechanism import PrivacyParams, derive_params, noise_law

from reference import MAX_NOISE_BITS, brute_force_shuffle_divergence


def _params96():
    return PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)


class TestNoiseDistribution:
    def test_small_regime_parameters(self):
        pmf = noise_distribution(4, _params96())
        assert np.array_equal(pmf, binom.pmf(np.arange(97), 96, 0.5))

    def test_large_regime_parameters(self):
        pmf = noise_distribution(200, _params96())
        assert pmf.size == 201
        assert np.allclose(pmf, binom.pmf(np.arange(201), 200, 0.24),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [1, 4, 95, 97, 200, 5000])
    def test_total_mass(self, m):
        pmf = noise_distribution(m, _params96())
        assert abs(pmf.sum() - 1.0) < 1e-12

    def test_support_cap(self):
        tau = float(DEFAULT_SUPPORT_CAP)  # m = 1 needs cap + 1 points
        params = PrivacyParams(0.5, 0.01, tau=tau, sigma2=1.5 * tau)
        with pytest.raises(ValueError, match="exceeds cap"):
            noise_distribution(1, params)
        assert noise_distribution(1, PrivacyParams(
            0.5, 0.01, tau=tau - 1, sigma2=1.5 * (tau - 1))).size == tau


class TestHockeyStick:
    def test_small_regime_passes(self):
        params = derive_params(0.8, 0.05)
        report = hockey_stick(4, params)
        assert report.passed
        assert max(report.divergence_forward, report.divergence_backward) <= 0.05

    def test_large_regime_passes(self):
        params = derive_params(0.8, 0.05)
        m = 10 * math.ceil(params.tau)
        report = hockey_stick(m, params)
        assert report.passed

    def test_less_noise_leaks_more(self):
        params = derive_params(0.8, 0.05)
        quartered = PrivacyParams(params.epsilon, params.delta,
                                  tau=params.tau / 4,
                                  sigma2=params.sigma2 / 4)
        full = hockey_stick(4, params)
        weak = hockey_stick(4, quartered)
        assert weak.divergence_forward > full.divergence_forward
        assert weak.divergence_backward > full.divergence_backward

    def test_shift_cancellation(self):
        # divergence computed with explicit constant shifts k is identical
        params = PrivacyParams(0.6, 0.05, tau=8.0, sigma2=12.0)
        pmf = noise_distribution(1, params)
        base = shifted_hockey_stick(pmf, params.epsilon)
        e_eps = math.exp(params.epsilon)
        for k in (0, 3):
            size = pmf.size + k + 2
            p = np.zeros(size)
            q = np.zeros(size)
            p[k:k + pmf.size] = pmf          # law of k + B
            q[k + 1:k + 1 + pmf.size] = pmf  # law of k + 1 + B'
            fwd = np.maximum(p - e_eps * q, 0.0).sum()
            bwd = np.maximum(q - e_eps * p, 0.0).sum()
            assert fwd == pytest.approx(base[0], abs=1e-15)
            assert bwd == pytest.approx(base[1], abs=1e-15)

    def test_zero_epsilon_equals_total_variation(self):
        pmf = noise_distribution(4, _params96())
        fwd, bwd = shifted_hockey_stick(pmf, 0.0)
        p = np.concatenate([pmf, [0.0]])
        q = np.concatenate([[0.0], pmf])
        tv = 0.5 * np.abs(p - q).sum()
        assert fwd == pytest.approx(tv, abs=1e-15)
        assert bwd == pytest.approx(tv, abs=1e-15)

    def test_brute_force_sufficiency(self):
        # m = 1 with a shrunken noise budget: auditing the raw shuffled
        # multiset agrees exactly with auditing the sum statistic
        params = PrivacyParams(0.8, 0.05, tau=3.2, sigma2=4.8)
        report = hockey_stick(1, params)
        fwd, bwd = brute_force_shuffle_divergence(params)
        assert fwd == pytest.approx(report.divergence_forward, abs=1e-12)
        assert bwd == pytest.approx(report.divergence_backward, abs=1e-12)

    def test_brute_force_single_biased_coin(self):
        # tau < 1: the one user sends a single Bernoulli(tau / 2) coin
        params = PrivacyParams(0.8, 0.05, tau=0.6, sigma2=0.9)
        report = hockey_stick(1, params)
        fwd, bwd = brute_force_shuffle_divergence(params)
        assert fwd == pytest.approx(report.divergence_forward, abs=1e-12)
        assert bwd == pytest.approx(report.divergence_backward, abs=1e-12)

    def test_brute_force_refuses_too_many_noise_bits(self):
        tau = MAX_NOISE_BITS + 0.5  # m = 1 sends ceil(tau) noise bits
        params = PrivacyParams(0.8, 0.05, tau=tau, sigma2=1.5 * tau)
        with pytest.raises(ValueError, match="21 noise bits is too many"):
            brute_force_shuffle_divergence(params)


def _paper_cells(sizes):
    cells = []
    for eps in (0.25, 0.5, 1.0):
        for delta in (1e-5, 1e-2):
            params = derive_params(eps, delta)
            cells += [(m, params) for m in sizes(params)]
    return cells


def _full_support_ms(params):
    return sorted({1, 2, 42, math.ceil(params.sigma), math.ceil(params.tau),
                   4 * math.ceil(params.tau), *(2**p for p in range(10, 20))})


# noise budgets around the smallest that passes at m = 1, so that the
# divergences sit near delta on both sides of it
SHRUNK = [(1, PrivacyParams(eps, delta, tau=tau, sigma2=1.5 * tau))
          for eps, delta, tau in [(1.0, 1e-5, 61.0), (1.0, 1e-5, 62.0),
                                  (0.5, 1e-5, 200.0), (0.5, 1e-5, 206.0),
                                  (0.25, 1e-5, 711.0), (0.25, 1e-5, 712.0)]]
SHRUNK += [(m, params) for m in (2, 3, 8) for _, params in SHRUNK[:2]]
LARGE_MS = [2**20, 2**21, 2**22, 10**7, 10**9]


def _random_cells(count, seed=20261019):
    """Log-uniform eps in 0.01..1, tau in 0.3..3e5 and m in 1..1e9."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(count):
        eps, tau, m = 10 ** rng.uniform([-2, math.log10(0.3), 0],
                                        [0, math.log10(3e5), 9])
        cells.append((int(m), PrivacyParams(float(eps), 1e-5, tau=float(tau),
                                            sigma2=1.5 * float(tau))))
    return cells


# 1 to 4 noise bits, where the two hinge ranges meet
TINY = [(m, PrivacyParams(eps, 0.05, tau=tau, sigma2=1.5 * tau))
        for m, tau in [(1, 0.6), (1, 3.2), (2, 3.2), (3, 0.9)]
        for eps in (0.01, 0.8)]


def _cells(cells):
    return pytest.mark.parametrize(
        "m,params", cells,
        ids=[f"m{m}-eps{p.epsilon}-delta{p.delta}-tau{p.tau:.0f}"
             for m, p in cells])


def _two_tail_reference(m, params):
    """Closed-form divergences of B against B + 1, and the tail masses they
    subtract.

    P(t) / P(t-1) falls with t, so P(t) - e^eps P(t-1) is positive exactly
    up to a crossing a, and P(t-1) - e^eps P(t) exactly from a crossing b on;
    each divergence is a difference of two binomial tail masses.
    """
    law = noise_law(m, params)
    n, q, e = law.n, law.q, math.exp(params.epsilon)
    a = min(n, math.ceil((n + 1) * q / (q + e * (1 - q))) - 1)
    b = max(1, math.floor((n + 1) * q / (q + (1 - q) / e)) + 1)
    fwd = (binom.cdf(a, n, q), e * binom.cdf(a - 1, n, q))
    bwd = (binom.sf(b - 2, n, q), e * binom.sf(b - 1, n, q))
    return [(x - y, x + y) for x, y in (fwd, bwd)]


def _cut_points(params):
    """K: each hinge range is cut K points from its guard point, fwd_hi or
    bwd_lo."""
    return math.ceil(64 * math.log(2) / params.epsilon) + 2


def _exact_divergences(n, e_eps):
    """Both divergences of B ~ Binomial(n, 1/2) against B + 1 as fractions,
    with e^eps the double e_eps that the audit multiplies by."""
    e = Fraction(e_eps)
    a, b = e.numerator, e.denominator
    comb = [math.comb(n, t) for t in range(n + 1)]
    cur, prev = comb + [0], [0] + comb   # 2^n p(t) and 2^n p(t-1)
    fwd = sum(max(0, b * x - a * y) for x, y in zip(cur, prev))
    bwd = sum(max(0, b * y - a * x) for x, y in zip(cur, prev))
    return Fraction(fwd, b * 2**n), Fraction(bwd, b * 2**n)


class TestWindow:
    @_cells(_paper_cells(_full_support_ms) + SHRUNK)
    def test_brackets_full_support(self, m, params):
        # the cut ranges of hockey_stick against the specification's full
        # support
        law = noise_law(m, params)
        assert law.n + 1 <= DEFAULT_SUPPORT_CAP
        report = hockey_stick(m, params)
        exact = shifted_hockey_stick(noise_distribution(m, params),
                                     params.epsilon)
        tails = [r[2] for r in hinge_ranges(law, params.epsilon)]
        e_eps = math.exp(params.epsilon)
        got = (report.divergence_forward, report.divergence_backward)
        for upper, want, tail in zip(got, exact, tails):
            assert tail <= 1e-12 * params.delta
            rounding = 1e-12 * want
            assert upper - (1 + e_eps) * tail - rounding <= want
            assert want <= upper + rounding
        assert report.passed == (max(exact) <= params.delta)

    @_cells(_paper_cells(lambda params: LARGE_MS))
    def test_matches_closed_form_above_cap(self, m, params):
        law = noise_law(m, params)
        assert law.n + 1 > DEFAULT_SUPPORT_CAP
        report = hockey_stick(m, params)
        tails = [r[2] for r in hinge_ranges(law, params.epsilon)]
        e_eps = math.exp(params.epsilon)
        got = (report.divergence_forward, report.divergence_backward)
        for upper, (want, subtracted), tail in zip(
                got, _two_tail_reference(m, params), tails):
            assert tail <= 1e-12 * params.delta
            # the reference cancels about four digits of the tails it
            # subtracts, whose rounding is below 1e-12 of their sum
            slack = 1e-9 * want + 1e-12 * subtracted
            assert want - slack <= upper <= want + (1 + e_eps) * tail + slack
        assert report.passed
        assert max(got) <= params.delta

    # scipy's pmf of the paper-tau cell, 1172 coins deep in the tail, is
    # itself off by up to 7e-12 of each exact value (the full support as
    # much as the cut ranges); the shrunk cells by at most 3e-14
    @pytest.mark.parametrize("tau,eps,slack", [(62.0, 1.0, 1e-12),
                                               (203.0, 0.5, 1e-12),
                                               (712.0, 0.25, 1e-12),
                                               (None, 1.0, 1e-11)])
    def test_matches_exact_fractions(self, tau, eps, slack):
        # m = 1 sends ceil(tau) fair coins, so every pmf value is
        # comb(n, t) / 2^n; tau None is the paper's tau, 1172 coins
        params = (derive_params(eps, 1e-5) if tau is None else
                  PrivacyParams(eps, 1e-5, tau=tau, sigma2=1.5 * tau))
        law = noise_law(1, params)
        assert law.q == 0.5
        report = hockey_stick(1, params)
        e_eps = math.exp(eps)
        tails = [r[2] for r in hinge_ranges(law, eps)]
        got = (report.divergence_forward, report.divergence_backward)
        slack = Fraction(slack)
        for upper, exact, tail in zip(got, _exact_divergences(law.n, e_eps),
                                      tails):
            assert exact > 0
            assert exact * (1 - slack) <= Fraction(upper)
            assert Fraction(upper) <= (exact + Fraction((1 + e_eps) * tail)
                                       ) * (1 + slack)
        assert tau is not None or min(tails) > 0, tails

    def test_hinge_ranges_hold_every_positive_term(self):
        # every term hockey_stick leaves out is at most 0, or lies beyond
        # a range's cut, where that range's tail covers it
        cells = _random_cells(300) + SHRUNK + TINY
        seen = {"q=0.5": 0, "q<0.01": 0, "m>tau": 0, "m<=tau": 0,
                "forward cut": 0, "backward cut": 0, "ranges meet": 0,
                "tail of a positive divergence": 0}
        for m, params in cells:
            law = noise_law(m, params)
            k = _cut_points(params)
            (lo_f, fwd_hi, tail_f), (bwd_lo, hi_b, tail_b) = hinge_ranges(
                law, params.epsilon)
            assert 0 <= lo_f <= fwd_hi <= law.n, (m, params)
            assert 0 <= bwd_lo <= hi_b <= law.n, (m, params)
            # no range is longer than K + 2 points
            assert fwd_hi - lo_f + 1 <= k + 2 and hi_b - bwd_lo + 1 <= k + 2
            # the terms t = a..b+1, reaching 2K points past each cut
            a = max(0, min(lo_f, bwd_lo) - 2 * k)
            b = min(law.n, max(fwd_hi, hi_b) + 2 * k)
            pmf = binom.pmf(np.arange(a - 1, b + 2), law.n, law.q)
            p, prev = pmf[1:], pmf[:-1]            # p(t) and p(t-1)
            t = np.arange(a, b + 2)
            e_eps = math.exp(params.epsilon)
            fwd_terms, bwd_terms = p - e_eps * prev, prev - e_eps * p
            # a range lo_f..fwd_hi sums the forward terms lo_f..fwd_hi, a
            # range bwd_lo..hi_b the backward terms bwd_lo + 1..hi_b + 1;
            # the terms on the crossing's side of a range are at most 0
            near = np.concatenate([fwd_terms[t > fwd_hi],
                                   bwd_terms[t <= bwd_lo]])
            # subnormal pmf values are multiples of 5e-324, whose rounding
            # can make a term positive where the exact one is not
            larger = np.maximum(p, prev)
            larger_near = np.concatenate([larger[t > fwd_hi],
                                          larger[t <= bwd_lo]])
            assert np.all((near <= 0)
                          | (larger_near < np.finfo(float).tiny)), (m, params)
            # the positive terms beyond a cut are each at most the pmf mass
            # beyond it, so together at most the tail
            beyond = [(fwd_terms[t < lo_f], tail_f),
                      (bwd_terms[t > hi_b + 1], tail_b)]
            for terms, tail in beyond:
                assert (np.maximum(terms, 0.0).sum()
                        <= tail * (1 + 1e-9) + 1e-300), (m, params)
            report = hockey_stick(m, params)
            got = (report.divergence_forward, report.divergence_backward)
            stretch = (np.maximum(fwd_terms, 0.0).sum(),
                       np.maximum(bwd_terms, 0.0).sum())
            for upper, want, tail in zip(got, stretch, (tail_f, tail_b)):
                rounding = 1e-12 * want + 1e-300
                assert want - rounding <= upper, (m, params)
                assert upper <= want + (1 + e_eps) * tail + rounding, (m,
                                                                      params)
                # each tail is below 2^-40 of a positive divergence
                if upper > 0:
                    assert tail <= 2.0**-40 * upper, (m, params, tail, upper)
                    seen["tail of a positive divergence"] += tail > 0
            seen["q=0.5"] += law.q == 0.5
            seen["q<0.01"] += law.q < 0.01
            seen["m>tau"] += m > params.tau
            seen["m<=tau"] += m <= params.tau
            seen["forward cut"] += lo_f > 0
            seen["backward cut"] += hi_b < law.n
            seen["ranges meet"] += fwd_hi >= bwd_lo
        assert min(seen.values()) > 0, seen

    def test_tail_is_the_mass_beyond_its_range(self):
        # below lo_f and above hi_b the pmf falls by more than e^eps a
        # step, so the 2K points next to a cut hold all but 2^-128 of
        # the mass beyond it
        cells = _random_cells(300) + SHRUNK + TINY
        compared = 0
        for m, params in cells:
            law = noise_law(m, params)
            k = _cut_points(params)
            (lo_f, _, tail_f), (_, hi_b, tail_b) = hinge_ranges(
                law, params.epsilon)
            below = binom.pmf(np.arange(max(0, lo_f - 2 * k), lo_f),
                              law.n, law.q).sum()
            above = binom.pmf(np.arange(hi_b + 1, min(law.n, hi_b + 2 * k) + 1),
                              law.n, law.q).sum()
            assert tail_f == pytest.approx(below, rel=1e-9, abs=1e-300), (
                m, params)
            assert tail_b == pytest.approx(above, rel=1e-9, abs=1e-300), (
                m, params)
            compared += (tail_f > 1e-300) + (tail_b > 1e-300)
        assert compared > 0

    @pytest.mark.parametrize("m,eps,delta", [(1, 0.5, 1e-5),
                                             (2048, 1.0, 1e-2),
                                             (4096, 1.0, 1e-5)])
    def test_tail_is_the_mass_outside_the_window(self, m, eps, delta):
        # on the full support: each range is cut on both sides of the
        # support, and its tail is all the mass beyond its cut
        params = derive_params(eps, delta)
        law = noise_law(m, params)
        (lo_f, _, tail_f), (_, hi_b, tail_b) = hinge_ranges(law, eps)
        assert 0 < lo_f and hi_b < law.n
        pmf = noise_distribution(m, params)
        assert tail_f == pytest.approx(pmf[:lo_f].sum(), rel=1e-9, abs=0.0)
        assert tail_b == pytest.approx(pmf[hi_b + 1:].sum(), rel=1e-9,
                                       abs=0.0)

    def test_ranges_reaching_both_ends_have_no_tail(self):
        cells = _random_cells(300) + SHRUNK + TINY
        both = 0
        for m, params in cells:
            law = noise_law(m, params)
            (lo_f, _, tail_f), (_, hi_b, tail_b) = hinge_ranges(
                law, params.epsilon)
            if lo_f == 0:
                assert tail_f == 0.0, (m, params)
            if hi_b == law.n:
                assert tail_b == 0.0, (m, params)
            both += lo_f == 0 and hi_b == law.n
        assert both > 0


class TestSubGaussianTail:
    # the confidence radius relies on B - offset being sub-Gaussian with
    # variance 1.5 tau; checked here with the exact binomial tails at the
    # batch sizes the engines use, m = ceil(sigma) and 2^p up to 2^30
    @pytest.mark.parametrize("eps", [1.0, 0.25])
    def test_two_sided_tail_within_bound(self, eps):
        params = derive_params(eps, 1e-5)
        t = 0.25 * params.sigma * np.arange(1, 49)  # 0.25 to 12 sigma
        bound = 2 * np.exp(-t**2 / (2 * 1.5 * params.tau))
        for m in [math.ceil(params.sigma), *(2**p for p in range(31))]:
            law = noise_law(m, params)
            # P(B >= offset + t) + P(B <= offset - t)
            tail = (binom.sf(np.ceil(law.offset + t) - 1, law.n, law.q)
                    + binom.cdf(np.floor(law.offset - t), law.n, law.q))
            assert np.all(tail <= bound), (m, np.max(tail / bound))

