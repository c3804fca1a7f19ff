"""Exact privacy verification of the binary summation mechanism.

For neighboring inputs (0, x_2..x_m) and (1, x_2..x_m) the total ones-count
of the shuffled bits is k + B and k + 1 + B' respectively, with B, B' iid
binomial noise totals.  The constant shift k cancels, so the hockey-stick
divergence between the two output distributions reduces to a divergence
between the noise pmf and its unit shift, computable exactly.

`hockey_stick` evaluates that pmf only on a window of WINDOW_SDS standard
deviations around the mean of B and adds the exact binomial mass outside
the window to each divergence.  The reports are thus certified upper bounds,
within that mass of the full-support values, at a cost of O(sqrt(n))
support points whatever the batch size.  `noise_distribution` keeps the
full support as the specification the window is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .mechanism import NoiseLaw, PrivacyParams, derive_params, noise_law

DEFAULT_SUPPORT_CAP = 10**6
# Half-width of the audited window in standard deviations of B.  With the
# paper's tau and delta <= 1e-2 the mass outside it measured below 1e-200 at
# every batch size from 1 to 1e9; whatever it is, the audit adds it.
WINDOW_SDS = 40
TAU_MULTIPLES = {"tau": 1, "4tau": 4}


@dataclass(frozen=True)
class AuditReport:
    m: int
    epsilon: float
    delta: float
    divergence_forward: float
    divergence_backward: float
    passed: bool


@dataclass(frozen=True)
class GridCell:
    m: int | str
    epsilon: float
    delta: float
    report: AuditReport | None
    error: str | None


def noise_distribution(m: int, params: PrivacyParams) -> np.ndarray:
    """Exact pmf of B over its full support 0..n.

    The specification the windowed audit is tested against; `hockey_stick`
    does not call it.  Supports above DEFAULT_SUPPORT_CAP points are refused.
    scipy's direct pmf evaluation is used rather than exponentiating logpmf:
    it is underflow-safe over this support and keeps the total mass within
    1e-12 of 1 even for supports of ~1e5 points.
    """
    law = noise_law(m, params)
    if law.n + 1 > DEFAULT_SUPPORT_CAP:
        raise ValueError(f"noise support of {law.n + 1} points exceeds cap "
                         f"{DEFAULT_SUPPORT_CAP}")
    return binom.pmf(np.arange(law.n + 1), law.n, law.q)


def shifted_hockey_stick(pmf: np.ndarray, epsilon: float) -> tuple[float, float]:
    """Hockey-stick divergences between pmf(t) and its unit shift pmf(t-1).

    Returns (forward, backward) where forward = sum_t max(0, p(t) - e^eps
    p(t-1)) and backward swaps the roles.  Callable with epsilon = 0 for
    total-variation sanity checks.
    """
    e_eps = math.exp(epsilon)
    p = np.concatenate([pmf, [0.0]])        # P(t), t = 0..n+1
    q = np.concatenate([[0.0], pmf])        # P(t-1)
    forward = float(np.maximum(p - e_eps * q, 0.0).sum())
    backward = float(np.maximum(q - e_eps * p, 0.0).sum())
    return forward, backward


def noise_window(law: NoiseLaw) -> tuple[int, int, float]:
    """(lo, hi, tail): the audited window lo..hi of B and the mass outside it.

    The window is mean +- WINDOW_SDS standard deviations, clipped to 0..n;
    the tail is exact, from the binomial cdf and survival function.
    """
    mean = law.n * law.q
    spread = WINDOW_SDS * math.sqrt(mean * (1.0 - law.q))
    lo = max(0, math.floor(mean - spread))
    hi = min(law.n, math.ceil(mean + spread))
    tail = binom.cdf(lo - 1, law.n, law.q) + binom.sf(hi, law.n, law.q)
    return lo, hi, float(tail)


def hockey_stick(m: int, params: PrivacyParams) -> AuditReport:
    """Certified (epsilon, delta) audit of one batch size.

    With W the divergences of the pmf restricted to the window, each exact
    divergence lies in [W - e^eps * tail, W + tail]: the window's two edge
    terms and the terms outside it change by at most that mass.  The report
    gives W + tail and passes when both are at most delta.
    """
    law = noise_law(m, params)
    lo, hi, tail = noise_window(law)
    pmf = binom.pmf(np.arange(lo, hi + 1), law.n, law.q)
    fwd, bwd = (w + tail for w in shifted_hockey_stick(pmf, params.epsilon))
    return AuditReport(m=m, epsilon=params.epsilon, delta=params.delta,
                       divergence_forward=fwd, divergence_backward=bwd,
                       passed=max(fwd, bwd) <= params.delta)


def audit_grid(ms: list[int | str], epsilons: list[float],
               deltas: list[float]) -> list[GridCell]:
    """Cartesian sweep; per-cell failures are recorded, not raised.

    A batch size may also be a key of TAU_MULTIPLES, which resolves to that
    multiple of ceil(tau) in each (epsilon, delta) cell.
    """
    cells = []
    for m, eps, delta in itertools.product(ms, epsilons, deltas):
        try:
            params = derive_params(eps, delta)
            if m in TAU_MULTIPLES:
                m = TAU_MULTIPLES[m] * math.ceil(params.tau)
            report = hockey_stick(m, params)
            cells.append(GridCell(m, eps, delta, report, None))
        except ValueError as exc:
            cells.append(GridCell(m, eps, delta, None, str(exc)))
    return cells


def brute_force_shuffle_divergence(params: PrivacyParams,
                                   max_noise_bits: int = 20) -> tuple[float, float]:
    """Audit the raw shuffled multiset for m = 1 by exhaustive enumeration.

    Enumerates every noise-bit outcome, accumulates the probability of each
    output multiset (here: the ones-count of the 1 + p transmitted bits), and
    computes both hockey-stick divergences between the neighboring inputs
    x = 0 and x = 1 directly over multisets.
    """
    law = noise_law(1, params)
    p = law.n
    if p > max_noise_bits:
        raise ValueError(f"{p} noise bits is too many to enumerate")
    dist = {0: {}, 1: {}}  # input bit -> {multiset key: probability}
    for noise in itertools.product((0, 1), repeat=p):
        ones = sum(noise)
        weight = law.q**ones * (1.0 - law.q)**(p - ones)
        for x in (0, 1):
            key = tuple(sorted((x,) + noise))
            dist[x][key] = dist[x].get(key, 0.0) + weight
    e_eps = math.exp(params.epsilon)
    keys = set(dist[0]) | set(dist[1])
    forward = sum(max(0.0, dist[0].get(k, 0.0) - e_eps * dist[1].get(k, 0.0))
                  for k in keys)
    backward = sum(max(0.0, dist[1].get(k, 0.0) - e_eps * dist[0].get(k, 0.0))
                   for k in keys)
    return forward, backward
