"""Limited-memory quasi-Newton minimization with orthant-wise handling of
an L1 penalty (OWL-QN).

Minimizes F(x) = f(x) + l1 * ||x||_1 where f is smooth and convex and the
caller supplies f and its gradient. With l1 = 0 this reduces to plain
L-BFGS with Armijo backtracking. The L1 term is never smoothed: the
pseudo-gradient picks the steepest one-sided descent direction at kinks and
the line search projects trial points back onto the chosen orthant, which
is what produces exact zeros.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_LINESEARCH = 60
MEMORY = 10  # the (s, y) curvature pairs kept for the direction
TOLERANCE = 1e-5  # the relative objective change below which a run stops
CURVATURE_EPS = 1e-12


class DivergenceError(RuntimeError):
    """Objective became non-finite; carries the iteration number."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"objective is not finite at iteration {iteration}")


class DomainError(RuntimeError):
    """Raised by fun_and_grad at a point where it cannot evaluate the
    objective. The line search takes such a trial point for too long a
    step and backtracks; at x0 the error propagates."""


@dataclass
class OwlQnResult:
    x: np.ndarray
    objective: float
    iterations: int
    # Why the run stopped: "tolerance" (relative objective change below
    # tolerance), "zero_step" (no descent direction: the pseudo-gradient,
    # or the direction projected onto its orthant, is zero), "line_search"
    # (no step of MAX_LINESEARCH backtracks decreased the objective inside
    # its domain) or "max_iterations".
    stop: str
    objective_log: list[float]


def _pseudo_gradient(x: np.ndarray, grad: np.ndarray, l1: float) -> np.ndarray:
    """The steepest one-sided derivative of f + l1*|x|: grad + l1*sign(x)
    off zero; at zero, grad shrunk towards 0 by l1 (0 when |grad| <= l1)."""
    if l1 == 0.0:
        return grad.copy()
    shift = np.clip(grad, -l1, l1)
    shift *= x == 0
    shift -= l1 * np.sign(x)
    return grad - shift


def _orthant(x: np.ndarray, pg: np.ndarray) -> np.ndarray:
    """The orthant a step may explore: sign(x) off zero, -sign(pg) at
    zero."""
    orthant = -np.sign(pg)
    orthant *= x == 0
    orthant += np.sign(x)
    return orthant


def _project(x_new: np.ndarray, orthant: np.ndarray) -> None:
    """Zero, in place, the coordinates of x_new outside orthant. Every zero
    is +0.0."""
    x_new *= x_new * orthant >= 0
    x_new += 0.0


@dataclass
class _Pair:
    """A stored curvature pair with the products that the two-loop
    recursion reads."""

    s: np.ndarray
    y: np.ndarray
    rho: float  # 1 / (s . y)
    gamma: float  # (s . y) / (y . y), the initial Hessian scale when this pair is the newest


def _lbfgs_direction(pg: np.ndarray, pairs: deque, scratch: np.ndarray) -> np.ndarray:
    """Two-loop recursion: d = -H*pg with H built from the stored pairs.
    scratch (the size of pg) holds each scaled pair vector in turn."""
    d = -pg
    if not pairs:
        return d
    alphas = []
    for pair in reversed(pairs):
        a = pair.rho * float(np.dot(pair.s, d))
        alphas.append(a)
        d -= np.multiply(pair.y, a, out=scratch)
    d *= pairs[-1].gamma
    for pair, a in zip(pairs, reversed(alphas)):
        b = pair.rho * float(np.dot(pair.y, d))
        d += np.multiply(pair.s, a - b, out=scratch)
    return d


def minimize_owlqn(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    l1: float = 0.0,
    max_iterations: int = 100,
    tolerance: float | None = None,
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> OwlQnResult:
    """Run up to max_iterations accepted quasi-Newton steps.

    fun_and_grad evaluates the smooth part only; the l1 term is added here.
    It may raise DomainError at a trial point, which then counts as a
    failed step.
    callback(iteration, objective, x) fires after each accepted step with
    the full (penalized) objective. Stops early when the relative objective
    change drops below tolerance (TOLERANCE, read at each call, by default),
    no descent direction is left, or the line search cannot make progress;
    OwlQnResult.stop says which.
    """
    if l1 < 0:
        raise ValueError("l1 must be non-negative")
    tolerance = TOLERANCE if tolerance is None else tolerance
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_and_grad(x)
    obj = f + l1 * float(np.abs(x).sum())
    if not np.isfinite(obj) or not np.all(np.isfinite(g)):
        raise DivergenceError(0)

    pairs: deque = deque(maxlen=MEMORY)
    scratch = np.empty_like(x)
    log = [obj]
    stop = "max_iterations"
    it = 0

    while it < max_iterations:
        pg = _pseudo_gradient(x, g, l1)
        if not np.any(pg):
            stop = "zero_step"
            break
        d = _lbfgs_direction(pg, pairs, scratch)
        if l1 > 0.0:
            # Constrain the direction to the descent orthant of the
            # pseudo-gradient; required for convergence of OWL-QN.
            d *= d * -pg > 0
            if not np.any(d):
                stop = "zero_step"
                break
            orthant = _orthant(x, pg)

        alpha = 1.0 if pairs else 1.0 / max(float(np.linalg.norm(d)), 1e-12)
        accepted = False
        for _ in range(MAX_LINESEARCH):
            x_new = x + alpha * d
            if l1 > 0.0:
                _project(x_new, orthant)
            alpha *= BACKTRACK
            try:
                f_new, g_new = fun_and_grad(x_new)
            except DomainError:
                continue
            obj_new = f_new + l1 * float(np.abs(x_new).sum())
            if not np.isfinite(obj_new):
                raise DivergenceError(it + 1)
            s = x_new - x
            if obj_new <= obj + ARMIJO_C * float(np.dot(pg, s)) and obj_new <= obj:
                accepted = True
                break
        if not accepted:
            stop = "line_search"
            break

        it += 1
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > CURVATURE_EPS:
            pairs.append(_Pair(s=s, y=y, rho=1.0 / sy, gamma=sy / float(np.dot(y, y))))
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj_new))
        x, g, obj = x_new, g_new, obj_new
        log.append(obj)
        if callback is not None:
            callback(it, obj, x)
        if rel_change < tolerance:
            stop = "tolerance"
            break

    return OwlQnResult(x=x, objective=obj, iterations=it, stop=stop, objective_log=log)
