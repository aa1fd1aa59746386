"""Paired-sample t-tests (paper §IV-B).

The paper decides every flag with *three* paired t-tests over the 20
metric pairs: two-tailed (H0: mean difference = 0), upper-tailed
(H0: mu <= 0) and lower-tailed (H0: mu >= 0).  The statistic and the
Student-t survival function are both computed here from first
principles; the tail is a regularized incomplete beta evaluated by a
continued fraction, so the runtime needs nothing beyond numpy and the
standard library.  The test suite pins it to exact closed forms, to
scipy's ``betainc`` (``tests/oracles/stats.py``) and to
``scipy.stats.ttest_rel``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


@dataclass(frozen=True)
class PairedTTestResult:
    """Statistic and the three p-values of the paper's procedure.

    Attributes
    ----------
    statistic:
        The paired t statistic of (after - before).
    p_two_sided / p_upper / p_lower:
        p-values of the two-tailed, upper-tailed (mean difference > 0)
        and lower-tailed (mean difference < 0) tests.
    n:
        Number of pairs.
    mean_difference:
        Mean of (after - before).
    """

    statistic: float
    p_two_sided: float
    p_upper: float
    p_lower: float
    n: int
    mean_difference: float


def t_sf(t: float, df: int) -> float:
    """Survival function P(T > t) of Student's t with ``df`` degrees.

    Uses the regularized incomplete beta function:
    P(T > t) = I_x(df/2, 1/2) / 2 for t >= 0, with x = df/(df+t^2).
    ``x`` and ``1 - x`` = t^2/(df+t^2) are both formed from ``t``, so
    the tail keeps its accuracy as t -> 0, where ``x`` rounds to 1.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    t = float(t)  # Python floats: no numpy warning from inf / inf as t -> inf
    if math.isnan(t):
        return math.nan
    t2 = t * t
    tail = 0.5 * _betainc(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))
    return tail if t >= 0 else 1.0 - tail


#: relative step at which the continued fraction has converged
_CF_EPS = sys.float_info.epsilon
#: floor that keeps Lentz's denominators away from zero
_CF_TINY = 1e-300
_CF_MAX_TERMS = 1000


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), given x and y = 1 - x.

    The continued fraction converges fast for x < (a+1)/(a+b+2);
    above that point the symmetry I_x(a, b) = 1 - I_y(b, a) is used.
    Taking ``y`` from the caller rather than forming ``1 - x`` keeps
    the relative accuracy of whichever side is small.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The incomplete beta continued fraction, by modified Lentz."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    fraction = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            fraction *= step
        if abs(step - 1.0) <= _CF_EPS:
            return fraction
    raise ArithmeticError(
        f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})"
    )


def paired_t_test(before, after) -> PairedTTestResult:
    """The paper's three paired t-tests on metric pairs.

    ``before`` holds the pre-cleaning metrics (case B or C), ``after``
    the post-cleaning metrics (case D), one entry per train/test split.

    Degenerate inputs follow the natural convention: if every pair is
    identical the difference is exactly zero and nothing is significant
    (all p-values 1); if the differences are constant but non-zero the
    statistic is infinite and the matching one-sided test has p = 0.
    """
    before = np.asarray(before, dtype=np.float64)
    after = np.asarray(after, dtype=np.float64)
    if before.shape != after.shape or before.ndim != 1:
        raise ValueError("before/after must be 1-D arrays of equal length")
    n = len(before)
    if n < 2:
        raise ValueError("need at least two pairs")

    differences = after - before
    mean = float(differences.mean())
    spread = float(differences.std(ddof=1))

    if spread < _EPS:
        if abs(mean) < _EPS:
            return PairedTTestResult(0.0, 1.0, 1.0, 1.0, n, mean)
        statistic = np.inf if mean > 0 else -np.inf
    else:
        statistic = mean / (spread / np.sqrt(n))

    df = n - 1
    p_upper = t_sf(statistic, df)
    p_lower = 1.0 - p_upper if np.isinf(statistic) else t_sf(-statistic, df)
    p_two = min(1.0, 2.0 * min(p_upper, p_lower))
    return PairedTTestResult(
        statistic=float(statistic),
        p_two_sided=p_two,
        p_upper=p_upper,
        p_lower=p_lower,
        n=n,
        mean_difference=mean,
    )
