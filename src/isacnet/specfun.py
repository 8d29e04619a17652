"""Special functions and quadrature underlying the analytic expressions.

Everything here is pure and deterministic: the incomplete Beta that coverage
and the radar kernels share and the incomplete Gamma (vectorized wrappers
over scipy.special), a Gauss-Kronrod adaptive
integrator with a log-substitution engine for semi-infinite integrals, and
the fixed composite Gauss-Kronrod rules that the deterministic analytic
paths evaluate in one array pass.  Integrands passed to the adaptive
integrators must accept 1-D numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betainc, gammainc

__all__ = [
    "QuadratureSpec",
    "ConvergenceError",
    "DEFAULT_QUAD",
    "PHYSICAL_QUAD",
    "integrate_finite",
    "integrate_semi_infinite",
    "panel_edges",
    "gk_rule",
    "gk_sum",
    "in_chunks",
    "check_bound",
]


class ConvergenceError(ArithmeticError):
    """Raised when an adaptive integral exhausts its subdivision budget.

    Carries the best estimate and the achieved error bound so callers can
    decide whether the partial answer is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance/budget contract for the adaptive integrators."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# Default for special-function identities; looser one for composed physical
# integrals where the acceptance tolerances are percent-level anyway.
DEFAULT_QUAD = QuadratureSpec()
PHYSICAL_QUAD = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12, max_subdivisions=4000)


def beta_incomplete(num, den, a, b):
    """Non-regularized incomplete Beta B(x; a, b) = int_0^x t^(a-1)
    (1-t)^(b-1) dt at x = num / (num + den).

    scipy's regularized `betainc` I times the complete Beta, for num, den
    >= 0 (den = inf is x = 0) and a, b > 0 (not checked); integrable
    endpoint singularities (a < 1 or b < 1) are fine.  Near x = 1, x keeps
    few digits of the 1 - x on which B depends like (1 - x)^b, so past the
    mean x = a/(a+b) it is B(a, b) (1 - I(1 - x; b, a)) with 1 - x =
    den / (num + den) exact.  At the mean I is of order 1/2, so 1 - I
    cancels little; at x = 1/2, I(x; q + 2/beta, 1 - 2/beta) can be 3e-4,
    and cutting there lost three digits of the echo's Beta term.
    """
    upper = num * b > den * a
    part = betainc(np.where(upper, b, a), np.where(upper, a, b),
                   np.where(upper, den, num) / (num + den))
    return beta(a, b) * np.where(upper, 1.0 - part, part)


def gamma_reg_lower(s, x):
    """Regularized lower incomplete Gamma P(s, x), the CDF of Gamma(s, 1)."""
    return gammainc(s, x)


# Gauss-Kronrod 7-15 pair: Kronrod abscissae/weights on [-1, 1] (symmetric,
# positive half listed) and the embedded 7-point Gauss weights.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
# the G7 weights on the 15 Kronrod nodes, zero where G7 has no node
_WEIGHTS_G15 = np.zeros(15)
_WEIGHTS_G15[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk_panels(f, a, b):
    """Evaluate the GK15 rule on each [a_i, b_i]; returns (values, errors)."""
    x, wk, wg = gk_rule(np.stack([a, b], axis=-1))
    return gk_sum(f(x.ravel()).reshape(x.shape), wk, wg)


def integrate_finite(f, lo, hi, spec=None, full_output=False):
    """Adaptive Gauss-Kronrod integral of f over (lo, hi).

    f must accept a 1-D ndarray of abscissae.  Endpoint singularities of
    order > -1 are handled by bisection toward the endpoint (the rule never
    evaluates f at lo or hi).  Raises ConvergenceError when the subdivision
    budget runs out before err <= max(abs_tol, rel_tol*|result|), or as
    soon as a panel's value or error is not finite.
    """
    spec = spec or DEFAULT_QUAD
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError("integrate_finite requires lo < hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integrate_finite requires finite bounds")

    a = np.array([lo])
    b = np.array([hi])
    vals, errs = _gk_panels(f, a, b)
    used = 0
    while True:
        total = vals.sum()
        toterr = errs.sum()
        if not (math.isfinite(total) and math.isfinite(toterr)):
            # NaN errors never select a panel for refinement
            raise ConvergenceError(
                f"non-finite integrand (estimate {total:.6g}, error bound "
                f"{toterr:.3g})", estimate=total, error_bound=toterr)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if toterr <= tol:
            break
        # refine every panel whose error exceeds its prorated share
        split = errs > tol / (2.0 * len(errs))
        if not split.any():
            split = errs == errs.max()
        n_split = int(split.sum())
        if used + n_split > spec.max_subdivisions:
            raise ConvergenceError(
                f"subdivision budget {spec.max_subdivisions} exhausted "
                f"(estimate {total:.6g}, error bound {toterr:.3g})",
                estimate=total, error_bound=toterr)
        used += n_split
        sa, sb = a[split], b[split]
        sm = 0.5 * (sa + sb)
        new_a = np.concatenate([a[~split], sa, sm])
        new_b = np.concatenate([b[~split], sm, sb])
        new_vals, new_errs = _gk_panels(f, np.concatenate([sa, sm]),
                                        np.concatenate([sm, sb]))
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
        a, b = new_a, new_b

    if full_output:
        return total, toterr, used
    return total


def integrate_semi_infinite(f, lo, spec=None, scale=None, full_output=False):
    """Integral of f over (lo, inf) via the substitution z = lo + e^u.

    The integrand is first probed on a wide logarithmic grid to locate its
    support (overridable with `scale`, a characteristic z - lo where the
    mass lives), then integrated over an expanding window: the upper and
    lower limits are extended until the estimated tail contribution drops
    below the tolerance.  Raises ConvergenceError for non-convergent tails.
    """
    spec = spec or DEFAULT_QUAD
    lo = float(lo)
    if lo < 0:
        raise ValueError("integrate_semi_infinite requires lo >= 0")

    def g(u):
        z = np.exp(u)
        return f(lo + z) * z

    if scale is not None:
        u0 = math.log(scale)
    else:
        probe_u = np.linspace(-42.0, 42.0, 169)
        with np.errstate(all="ignore"):
            probe = np.abs(np.asarray(g(probe_u), dtype=float))
        probe = np.nan_to_num(probe, nan=0.0, posinf=0.0, neginf=0.0)
        u0 = float(probe_u[int(np.argmax(probe))]) if probe.max() > 0 else 0.0

    width = 6.0
    step = 4.0
    window_spec = QuadratureSpec(rel_tol=spec.rel_tol,
                                 abs_tol=spec.abs_tol / 8.0,
                                 max_subdivisions=spec.max_subdivisions)
    used = 0

    def window(ua, ub):
        nonlocal used
        v, e, n = integrate_finite(g, ua, ub, window_spec, full_output=True)
        used += n
        if used > spec.max_subdivisions:
            raise ConvergenceError(
                "subdivision budget exhausted across windows",
                estimate=acc, error_bound=acc_err)
        return v, e

    acc, acc_err = 0.0, 0.0
    v, e = window(u0 - width, u0 + width)
    acc += v
    acc_err += e

    for direction in (+1, -1):
        edge = u0 + direction * width
        quiet = 0
        last = 0.0
        for k in range(80):
            ua = edge if direction > 0 else edge - step
            ub = edge + step if direction > 0 else edge
            v, e = window(ua, ub)
            acc += v
            acc_err += e
            last = v
            edge += direction * step
            if abs(v) <= max(spec.abs_tol, spec.rel_tol * abs(acc)) / 8.0:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
        else:
            raise ConvergenceError(
                "tail of semi-infinite integral did not converge",
                estimate=acc, error_bound=acc_err)
        acc_err += abs(last)  # proxy for the truncated tail beyond the window

    if full_output:
        return acc, acc_err, used
    return acc


# Tail edges of a composite rule beyond its core, in units of the decay
# length 1/rate: each panel is twice as wide as the last, and the outermost
# edge lies where an integrand decaying like exp(-rate * distance) has
# fallen by e^-63, below double precision.
_TAIL_EDGES = 2.0 ** np.arange(7) - 1.0
# How far, in decay lengths, the core of a coverage or radar rule reaches
# beyond the bend it covers.
_MARGIN = 4.0


def panel_edges(lo, hi, panels, rate_lo=None, rate_hi=None):
    """Edges of a composite rule: `panels` equal panels on [lo, hi] plus tails.

    lo and hi broadcast against each other, so every row of a batch gets
    its own core.  With rate_lo (rate_hi) given, six panels of doubling
    width extend the rule below lo (above hi) over an integrand tail that
    decays like exp(-rate * distance).  Returns an array (..., n_edges).
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    shape = np.broadcast_shapes(lo.shape, hi.shape)[:-1]
    parts = [lo + (hi - lo) * np.linspace(0.0, 1.0, panels + 1)]
    if rate_lo is not None:
        parts.insert(0, lo - _TAIL_EDGES[:0:-1] / rate_lo)
    if rate_hi is not None:
        parts.append(hi + _TAIL_EDGES[1:] / rate_hi)
    return np.concatenate([np.broadcast_to(p, shape + p.shape[-1:])
                           for p in parts], axis=-1)


def gk_rule(edges):
    """Nodes and weights of the composite GK15 rule between consecutive edges.

    edges: (..., n_edges), ascending along the last axis.  Returns the
    nodes x and the Kronrod weights wk, both (..., n_edges - 1, 15), and
    the embedded G7 weights wg on the same nodes (zero where G7 has none).
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    return mid + half * _NODES, half * _WEIGHTS_K, half * _WEIGHTS_G15


def gk_sum(y, wk, wg):
    """Integral of the node values y over the last two axes, with its bound.

    The bound is the sum over panels of |K15 - G7|, floored per panel at 50
    machine epsilons of the panel's absolute integral.
    """
    vk = (y * wk).sum(axis=-1)
    vg = (y * wg).sum(axis=-1)
    floor = 50.0 * np.finfo(float).eps * (np.abs(y) * np.abs(wk)).sum(axis=-1)
    return vk.sum(axis=-1), np.maximum(np.abs(vk - vg), floor).sum(axis=-1)


# Temporary elements per slice of a fixed rule's outer nodes.  Slices this
# small keep a rule's working set near 1 MB; at 1 << 19 one radar-rate call
# raised the peak resident set of the process that runs it by 13 MB.
_CHUNK = 1 << 14


def in_chunks(f, z, cost):
    """Apply f to consecutive slices of z and join the arrays it returns.

    `cost` is the number of temporary elements f holds per z; each slice
    keeps that under _CHUNK (a slice holds at least one z), so the peak
    memory does not grow with the number of outer nodes.
    """
    step = max(1, _CHUNK // cost)
    parts = [f(z[i:i + step]) for i in range(0, len(z), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def check_bound(value, bound, what):
    """Raise ConvergenceError where an error bound misses PHYSICAL_QUAD.

    The tolerance is max(abs_tol, rel_tol * |value|), elementwise, as the
    adaptive integrators apply it; a NaN bound fails too.
    """
    value = np.asarray(value, dtype=float)
    bound = np.asarray(bound, dtype=float)
    tol = np.maximum(PHYSICAL_QUAD.abs_tol, PHYSICAL_QUAD.rel_tol * np.abs(value))
    bad = ~(bound <= tol)
    if np.any(bad):
        i = np.flatnonzero(bad.ravel())[0]
        raise ConvergenceError(
            f"{what}: error bound {bound.ravel()[i]:.3g} exceeds "
            f"the tolerance {tol.ravel()[i]:.3g} "
            f"(estimate {value.ravel()[i]:.6g})",
            estimate=value, error_bound=bound)
