"""RK4 in p: the oracle for ``selftest.ode_quadrature``.

``ode_quadrature`` integrates the undercut dynamics in the wage denominator
u = w10 + (w11 - w10)*p.  This is the same fixed-step RK4 in p itself, as
the package shipped it before, kept to check the u-form against and to
back the tests that pin the p-form's bits, steps and tolerances.
"""

import numpy as np


def ode_quadrature_p(w11, w10, p0, budget, steps: int = 1_000_000):
    """Fixed-step RK4 integration of dp/dt = -1/(p*w11 + (1-p)*w10).

    All arguments broadcast, so a batch of instances integrates in one pass.
    Returns (p_end, d_min) where d_min is the smallest wage denominator seen
    along the path; results with small d_min approach the singular regime
    and should not be trusted to tight tolerances.

    No slope is positive, so no step moves p with the sign of the budget:
    p is monotone along the path, and so, in floating point too, is the
    affine denominator w10 + gap*p, whose smallest value is at one end.
    """
    w11 = np.atleast_1d(np.asarray(w11, dtype=float))
    w10, p0, budget = (np.broadcast_to(np.asarray(a, dtype=float), w11.shape).copy()
                       for a in (w10, p0, budget))
    gap = w11 - w10
    p = p0.copy()
    h = budget / steps

    # np.maximum gives np.clip's bits at a fraction of its call overhead, and
    # the hoisted products are the ones the expressions evaluated left to right.
    half_h, sixth_h = 0.5 * h, h / 6.0

    def f(x):
        return -1.0 / np.maximum(w10 + gap * x, 1e-300)

    for _ in range(steps):
        k1 = f(p)
        k2 = f(p + half_h * k1)
        k3 = f(p + half_h * k2)
        k4 = f(p + h * k3)
        p = p + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p, np.minimum(w10 + gap * p0, w10 + gap * p)
