"""scipy's Student-t tail — the spec of the in-repo incomplete beta.

``repro.stats.t_sf`` evaluates I_x(df/2, 1/2) with its own continued
fraction so the runtime needs no scipy.  This is the ``betainc``
version it replaced; the tests pin the production tail to it over a
grid of degrees of freedom and statistics.
"""

import numpy as np
from scipy import special


def t_sf_reference(t: float, df: int) -> float:
    """Survival function P(T > t) of Student's t with ``df`` degrees.

    Uses the regularized incomplete beta function:
    P(T > t) = I_{df/(df+t^2)}(df/2, 1/2) / 2 for t >= 0.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if np.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * float(special.betainc(df / 2.0, 0.5, x))
    return tail if t >= 0 else 1.0 - tail
