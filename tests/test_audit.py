import math

import numpy as np
import pytest
from scipy.stats import binom

from shufflebandit.audit import (DEFAULT_SUPPORT_CAP, GridCell, audit_grid,
                                 brute_force_shuffle_divergence, hockey_stick,
                                 noise_distribution, shifted_hockey_stick)
from shufflebandit.mechanism import PrivacyParams, derive_params


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


class TestAuditGrid:
    def test_all_cells_pass(self):
        tau_cells = [math.ceil(derive_params(e, d).tau)
                     for e in (0.3, 0.9) for d in (1e-2, 1e-5)]
        ms = sorted({1, 10, *tau_cells})
        cells = audit_grid(ms, [0.3, 0.9], [1e-2, 1e-5])
        assert len(cells) == len(ms) * 4
        assert all(cell.report is not None and cell.report.passed
                   for cell in cells)

    def test_empty_grid(self):
        assert audit_grid([], [0.5], [0.01]) == []

    def test_invalid_cell_recorded(self):
        cells = audit_grid([4], [1.5], [0.01])
        assert len(cells) == 1
        assert cells[0].report is None
        assert "epsilon" in cells[0].error
