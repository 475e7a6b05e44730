"""The former per-point sigma jet, kept as the reference of the one assembly.

``former_jet`` and ``former_partial`` are the product rule that sigma, its
partials, zeta and wp were read from by coordinate index, with numpy per
point. Imported by the tests; not collected (its name does not start with
test_).
"""

import numpy as np
from box_theta import theta_pass

from sigmatoda.theta import JET


def former_jet(ctx, u, order: int):
    """One theta pass at u, up to ``order`` derivatives.

    Returns the envelope gamma0 exp(-u.kappa.u/2), theta and its L1 mass,
    q = -kappa u, and the theta gradient and Hessian in the u variables
    (None below their order). A stack u of shape (K, g) takes one pass for
    all K points and returns the list of their jets. The pass is the
    package's kernel as ``sigmatoda.sigma`` holds it at the call, so a
    kernel patched there serves the oracle too.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    moments = theta_pass(JET[order], ctx.chars.a, ctx.chars.b,
                        np.einsum("ij,...j->...i", ctx.pmat, u),
                        ctx.periods.riemann, ctx.trunc_radius, ctx.tol)
    if u.ndim > 1:
        return [_point_jet(ctx, p, *(None if m is None else m[k] for m in moments))
                for k, p in enumerate(u)]
    return _point_jet(ctx, u, *moments)


def _point_jet(ctx, u, theta0, grad, hess, l1):
    """The jet of ``former_jet`` at one point u, from its theta moments."""
    env = ctx.gamma0 * np.exp(-0.5 * (u @ ctx.kappa @ u))
    q = -(ctx.kappa @ u)
    tvec = None if grad is None else ctx.pmat.T @ grad
    hmat = None if hess is None else ctx.pmat.T @ hess @ ctx.pmat
    return env, theta0, float(l1), q, tvec, hmat


def former_partial(ctx, jet, idx) -> complex:
    """Partial derivative of sigma for 0-based labels ``idx`` from a jet."""
    env, theta0, _, q, tvec, hmat = jet
    if len(idx) == 0:
        return env * theta0
    if len(idx) == 1:
        i = idx[0]
        return env * (q[i] * theta0 + tvec[i])
    i, j = idx
    return env * ((q[i] * q[j] - ctx.kappa[i, j]) * theta0
                  + q[i] * tvec[j] + q[j] * tvec[i] + hmat[i, j])
