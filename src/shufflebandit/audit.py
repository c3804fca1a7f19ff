"""Exact privacy verification of the binary summation mechanism.

For neighboring inputs (0, x_2..x_m) and (1, x_2..x_m) the total ones-count
of the shuffled bits is k + B and k + 1 + B' respectively, with B, B' iid
binomial noise totals.  The constant shift k cancels, so the hockey-stick
divergence between the two output distributions reduces to a divergence
between the noise pmf and its unit shift, computable exactly.

`hockey_stick` reads that pmf only where a hinge term can be positive.
The ratio p(t) / p(t-1) = (n-t+1) q / (t (1-q)) falls as t grows, so the
forward term p(t) - e^eps p(t-1) is positive only below the crossing
c_f = (n+1) q / (q + e^eps (1-q)), and the backward term p(t-1) - e^eps p(t)
only above c_b = (n+1) q e^eps / (1 - q + q e^eps).  The forward divergence
is read up to fwd_hi = floor(c_f)+1 and the backward one from
bwd_lo = ceil(c_b)-2: each range reaches one point past its crossing, in
case rounding moves the computed crossing across an integer.

Below c_f each step down divides the pmf by more than e^eps, and above c_b
each step up does, so K = ceil(64 ln 2 / eps) + 2 points from a crossing
it has fallen by at least 2^-64: 47 points at eps = 1, 91 at 0.5 and 180
at 0.25, whatever the batch size.  Each range is cut there, to
lo_f..fwd_hi and bwd_lo..hi_b, and each divergence adds the exact binomial
mass beyond its cut, the cdf below lo_f or the sf above hi_b.  The reports
are thus upper bounds, within that tail of the full-support values, up to
rounding.

Each range reads scipy's pmf only at its guard point, fwd_hi or bwd_lo,
and walks toward its cut by the closed-form ratio r(t) = p(t) / p(t-1),
down by 1/r(t) or up by r(t), the way the pmf falls, so values underflow
gradually and never overflow.  A hinge term is p(t-1) (r(t) - e^eps), or
p(t) (1/r(t) - e^eps) backward; subtracting two independently rounded pmf
values instead loses up to 1.4e-9 relative.  Against exact 40-digit sums
every report tested is within max(1e-12, 50 K 2^-53) relative, mostly
scipy's rounding of the one value read.  Those sums, the brute-force audit
of the raw shuffled multiset (the popcount is a sufficient statistic) and
a term-by-term sum over a pmf array live in `tests/reference.py`.

The binomial pmf, cdf and sf are the ufuncs `scipy.stats.binom` itself
calls; taking them from `scipy.special` spares the audit the import of
`scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special._ufuncs import _binom_cdf, _binom_pmf, _binom_sf

from .mechanism import NoiseLaw, PrivacyParams, noise_law

# kept with noise_distribution, which perfbench/tracer.py looks up
DEFAULT_SUPPORT_CAP = 10**6


@dataclass(frozen=True)
class AuditReport:
    m: int
    epsilon: float
    delta: float
    divergence_forward: float
    divergence_backward: float
    passed: bool


# stays here, though only tests call it, since perfbench/tracer.py looks it up
def noise_distribution(m: int, params: PrivacyParams) -> np.ndarray:
    """Exact pmf of B over its full support 0..n.

    The tests check the tail masses of `hinge_ranges` against it;
    `hockey_stick` does not call it.  Supports above DEFAULT_SUPPORT_CAP
    points are refused.  scipy's direct pmf evaluation is used rather than
    exponentiating logpmf: it is underflow-safe over this support and keeps
    the total mass within 1e-12 of 1 even for supports of ~1e5 points.
    """
    law = noise_law(m, params)
    if law.n + 1 > DEFAULT_SUPPORT_CAP:
        raise ValueError(f"noise support of {law.n + 1} points exceeds cap "
                         f"{DEFAULT_SUPPORT_CAP}")
    return _binom_pmf(np.arange(law.n + 1), law.n, law.q)


def hinge_ranges(law: NoiseLaw, epsilon: float
                 ) -> tuple[tuple[int, int, float], tuple[int, int, float]]:
    """((lo_f, fwd_hi, tail_f), (bwd_lo, hi_b, tail_b)): the forward
    divergence is read from lo_f..fwd_hi and the backward one from
    bwd_lo..hi_b, each cut K points from its crossing (module docstring);
    tail_f is the exact mass below lo_f and tail_b the mass above hi_b.
    """
    n, q, e_eps = law.n, law.q, math.exp(epsilon)
    c_f = (n + 1) * q / (q + e_eps * (1.0 - q))
    c_b = (n + 1) * q * e_eps / (1.0 - q + q * e_eps)
    fwd_hi = min(n, math.floor(c_f) + 1)
    bwd_lo = max(0, math.ceil(c_b) - 2)
    k = math.ceil(64 * math.log(2) / epsilon) + 2
    lo_f, hi_b = max(0, fwd_hi - k), min(n, bwd_lo + k)
    # _binom_cdf(-1, n, q) is nan where binom.cdf gives 0
    tail_f = float(_binom_cdf(lo_f - 1, n, q)) if lo_f > 0 else 0.0
    return (lo_f, fwd_hi, tail_f), (bwd_lo, hi_b, float(_binom_sf(hi_b, n, q)))


def _hinge_sum(law: NoiseLaw, guard: int, end: int, e_eps: float) -> float:
    """One divergence's hinge terms over guard..end, walked from scipy's
    p(guard) toward the cut end (module docstring), plus p(end)."""
    down = end < guard  # forward: pairs t = guard..end+1, else guard+1..end
    t = np.arange(guard, end, -1.0) if down else np.arange(guard + 1.0, end+1)
    ratio = (law.n + 1.0 - t) / t * (law.q / (1.0 - law.q))  # p(t) / p(t-1)
    near, fall = (ratio, 1.0 / ratio) if down else (1.0 / ratio, ratio)
    # each pair's far point; every range has a pair: fwd_hi >= 1, bwd_lo < n
    walk = _binom_pmf(guard, law.n, law.q) * np.multiply.accumulate(fall)
    # walk >= 0, so this sums max(0, walk * (near - e^eps))
    return float(np.dot(walk, np.maximum(near - e_eps, 0.0)) + walk[-1])


def hockey_stick(m: int, params: PrivacyParams) -> AuditReport:
    """(epsilon, delta) audit of one batch size, certified up to rounding.

    With W a divergence of the pmf restricted to its hinge range and tail
    the mass beyond the range's cut, the exact divergence lies in
    [W - e^eps * tail, W + tail]: the term at the cut and the terms beyond
    it change by at most that mass, and the terms past the crossing are at
    most 0.  The report gives W + tail and passes when both are at most
    delta.  The bound holds for the walk's pmf values, so a report within
    max(1e-12, 50 K 2^-53) relative of delta is not certified.
    """
    law = noise_law(m, params)
    (lo_f, fwd_hi, tail_f), (bwd_lo, hi_b, tail_b) = hinge_ranges(
        law, params.epsilon)
    e_eps = math.exp(params.epsilon)
    fwd = _hinge_sum(law, fwd_hi, lo_f, e_eps) + tail_f
    bwd = _hinge_sum(law, bwd_lo, hi_b, e_eps) + tail_b
    return AuditReport(m=m, epsilon=params.epsilon, delta=params.delta,
                       divergence_forward=fwd, divergence_backward=bwd,
                       passed=max(fwd, bwd) <= params.delta)
