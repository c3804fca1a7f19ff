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
lo_f..fwd_hi and bwd_lo..hi_b, and as the pmf goes on falling beyond the
cut, each divergence adds the geometric bound p(cut) / (e^eps - 1) on the
mass there.  The reports are thus upper bounds, within that tail of the
full-support values, up to rounding.

Each range reads the pmf at one point, its guard point fwd_hi or bwd_lo,
by Loader's saddle-point formula (C. Loader, "Fast and Accurate Computation
of Binomial Probabilities", 2000), p(x) = sqrt(n / (2 pi x (n-x)))
exp(d(n) - d(x) - d(n-x) - D(x, nq) - D(n-x, n(1-q))), with d the error of
Stirling's formula for ln k! and D(x, mu) = x ln(x/mu) + mu - x.  It walks
toward its cut by the closed-form ratio r(t) = p(t) / p(t-1), down by
1/r(t) or up by r(t), the way the pmf falls, so values underflow gradually
and never overflow.  A hinge term is p(t-1) (r(t) - e^eps), or
p(t) (1/r(t) - e^eps) backward: no two rounded pmf values are subtracted.
Every report tested is within max(1e-12, 50 K 2^-53) relative of exact
40-digit sums.  Those sums, the brute-force audit of the raw shuffled
multiset (the popcount is a sufficient statistic) and a term-by-term sum
over a pmf array live in `tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanism import NoiseLaw, PrivacyParams, noise_law

# kept with noise_distribution, which perfbench/tracer.py looks up
DEFAULT_SUPPORT_CAP = 10**6

# d(k) = ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi), k < 16 (d(0) unused)
_STIRLERR = (0.0, .08106146679532726, .0413406959554093, .02767792568499834,
             .020790672103765093, .016644691189821193, .013876128823070748,
             .01189670994589177, .010411265261972096, .009255462182712733,
             .00833056343336287, .007573675487951841, .00694284010720953,
             .006408994188004207, .0059513701127588475, .005554733551962801)


@dataclass(frozen=True)
class AuditReport:
    m: int
    epsilon: float
    delta: float
    divergence_forward: float
    divergence_backward: float
    passed: bool


def _stirlerr(k: int) -> float:
    """d(k): the table below 16, the Stirling series from there."""
    if k < 16:
        return _STIRLERR[k]
    z = 1.0 / (float(k) * k)
    return (1/12 - z * (1/360 - z * (1/1260 - z * (1/1680 - z/1188)))) / k


def _bd0(x: int, mu: float, dev: float) -> float:
    """D(x, mu), dev = x - mu; by its series in v = dev / (x + mu) where
    |v| < 0.1, as the terms past w^9 are below 1e-20 of it."""
    v = dev / (x + mu)
    if abs(v) >= 0.1:
        return x * math.log1p(dev / mu) - dev
    w = v * v  # sum of w^j / (2j + 1), j = 1..9, by Horner's rule
    s = w * (1/3 + w * (1/5 + w * (1/7 + w * (1/9 + w * (1/11 + w * (
        1/13 + w * (1/15 + w * (1/17 + w / 19))))))))
    return dev * v + 2.0 * x * v * s


def _pmf(x: int, n: int, q: float) -> float:
    """Loader's binomial pmf at x (module docstring)."""
    if x == 0 or x == n:
        return math.exp(n * (math.log(q) if x else math.log1p(-q)))
    num, den = q.as_integer_ratio()
    mean, dev = n * q, (x * den - n * num) / den  # dev = x - nq, rounded once
    return math.exp(_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
                    - _bd0(x, mean, dev) - _bd0(n - x, n - mean, -dev)
                    ) * math.sqrt(n / (2.0 * math.pi * x * (n - x)))


def _walk(law: NoiseLaw, start: int, end: int) -> tuple[np.ndarray, ...]:
    """(near, walk): walk is the pmf from start, excluded, to end != start,
    read from Loader's p(start) by r(t); near, the pmf one point nearer
    start over it."""
    down = end < start  # pairs t = start..end+1, else start+1..end
    t = np.arange(start, end, -1.0) if down else np.arange(start + 1.0, end+1)
    ratio = (law.n + 1.0 - t) / t * (law.q / (1.0 - law.q))  # r(t)
    near, fall = (ratio, 1.0 / ratio) if down else (1.0 / ratio, ratio)
    fall[0] *= _pmf(start, law.n, law.q)  # near was computed before
    return near, np.multiply.accumulate(fall)


# stays here, though only tests call it, since perfbench/tracer.py looks it up
def noise_distribution(m: int, params: PrivacyParams) -> np.ndarray:
    """The pmf of B over 0..n, walked both ways from Loader's value at the
    mode.  Supports above DEFAULT_SUPPORT_CAP points are refused."""
    law = noise_law(m, params)
    if law.n + 1 > DEFAULT_SUPPORT_CAP:
        raise ValueError(f"noise support of {law.n + 1} points exceeds cap "
                         f"{DEFAULT_SUPPORT_CAP}")
    mode = math.floor((law.n + 1) * law.q)
    down, up = (_walk(law, mode, end)[1] if end != mode else []
                for end in (0, law.n))
    return np.concatenate([down[::-1], [_pmf(mode, law.n, law.q)], up])


def _hinge_ends(law: NoiseLaw, epsilon: float
                ) -> tuple[tuple[int, int], tuple[int, int]]:
    """((fwd_hi, lo_f), (bwd_lo, hi_b)): each divergence's guard point and
    its cut K points away (module docstring)."""
    n, q, e_eps = law.n, law.q, math.exp(epsilon)
    c_f = (n + 1) * q / (q + e_eps * (1.0 - q))
    c_b = (n + 1) * q * e_eps / (1.0 - q + q * e_eps)
    fwd_hi = min(n, math.floor(c_f) + 1)
    bwd_lo = max(0, math.ceil(c_b) - 2)
    k = math.ceil(64 * math.log(2) / epsilon) + 2
    return (fwd_hi, max(0, fwd_hi - k)), (bwd_lo, min(n, bwd_lo + k))


def _hinge_sum(law: NoiseLaw, guard: int, cut: int, e_eps: float
               ) -> tuple[float, float]:
    """One divergence's hinge terms over guard..cut plus p(cut), and the
    bound p(cut) / (e^eps - 1) on the mass beyond the cut, if any."""
    # every range has a pair: fwd_hi >= 1, bwd_lo < n
    near, walk = _walk(law, guard, cut)
    tail = walk[-1] / (e_eps - 1.0) if 0 < cut < law.n else 0.0
    # walk >= 0, so this sums max(0, walk * (near - e^eps))
    return (float(np.dot(walk, np.maximum(near - e_eps, 0.0)) + walk[-1]),
            float(tail))


def hockey_stick(m: int, params: PrivacyParams) -> AuditReport:
    """(epsilon, delta) audit of one batch size, certified up to rounding.

    With W a divergence of the pmf restricted to its hinge range and tail
    the bound on the mass beyond the range's cut, the exact divergence lies
    in [W - e^eps * tail, W + tail]: the term at the cut and the terms
    beyond it change by at most that mass, and the terms past the crossing
    are at most 0.  The report gives W + tail and passes when both are at
    most delta.  The bound holds for the walk's pmf values, so a report
    within max(1e-12, 50 K 2^-53) relative of delta is not certified.
    """
    law = noise_law(m, params)
    e_eps = math.exp(params.epsilon)
    fwd, bwd = (sum(_hinge_sum(law, guard, cut, e_eps))
                for guard, cut in _hinge_ends(law, params.epsilon))
    return AuditReport(m=m, epsilon=params.epsilon, delta=params.delta,
                       divergence_forward=fwd, divergence_backward=bwd,
                       passed=max(fwd, bwd) <= params.delta)
