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
    if l1 == 0.0:
        return grad.copy()
    pg = np.where(x > 0, grad + l1, np.where(x < 0, grad - l1, 0.0))
    at_zero = x == 0
    right = grad + l1
    left = grad - l1
    pg[at_zero & (right < 0)] = right[at_zero & (right < 0)]
    pg[at_zero & (left > 0)] = left[at_zero & (left > 0)]
    return pg


def _lbfgs_direction(pg: np.ndarray, s_hist: deque, y_hist: deque) -> np.ndarray:
    """Two-loop recursion: d = -H*pg with H built from the stored pairs."""
    d = -pg
    if not s_hist:
        return d
    alphas = []
    rhos = [1.0 / float(np.dot(y, s)) for s, y in zip(s_hist, y_hist)]
    for i in range(len(s_hist) - 1, -1, -1):
        a = rhos[i] * float(np.dot(s_hist[i], d))
        alphas.append(a)
        d -= a * y_hist[i]
    s_last, y_last = s_hist[-1], y_hist[-1]
    d *= float(np.dot(s_last, y_last)) / float(np.dot(y_last, y_last))
    alphas.reverse()
    for i in range(len(s_hist)):
        b = rhos[i] * float(np.dot(y_hist[i], d))
        d += (alphas[i] - b) * s_hist[i]
    return d


def minimize_owlqn(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    l1: float = 0.0,
    max_iterations: int = 100,
    memory: int = 10,
    tolerance: float = 1e-5,
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> OwlQnResult:
    """Run up to max_iterations accepted quasi-Newton steps.

    fun_and_grad evaluates the smooth part only; the l1 term is added here.
    It may raise DomainError at a trial point, which then counts as a
    failed step.
    callback(iteration, objective, x) fires after each accepted step with
    the full (penalized) objective. Stops early when the relative objective
    change drops below tolerance, no descent direction is left, or the line
    search cannot make progress; OwlQnResult.stop says which.
    """
    if l1 < 0:
        raise ValueError("l1 must be non-negative")
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun_and_grad(x)
    obj = f + l1 * float(np.abs(x).sum())
    if not np.isfinite(obj) or not np.all(np.isfinite(g)):
        raise DivergenceError(0)

    s_hist: deque = deque(maxlen=memory)
    y_hist: deque = deque(maxlen=memory)
    log = [obj]
    stop = "max_iterations"
    it = 0

    while it < max_iterations:
        pg = _pseudo_gradient(x, g, l1)
        if not np.any(pg):
            stop = "zero_step"
            break
        d = _lbfgs_direction(pg, s_hist, y_hist)
        if l1 > 0.0:
            # Constrain the direction to the descent orthant of the
            # pseudo-gradient; required for convergence of OWL-QN.
            d[d * -pg <= 0] = 0.0
            if not np.any(d):
                stop = "zero_step"
                break
            orthant = np.where(x != 0, np.sign(x), -np.sign(pg))

        alpha = 1.0 if s_hist else 1.0 / max(float(np.linalg.norm(d)), 1e-12)
        accepted = False
        for _ in range(MAX_LINESEARCH):
            x_new = x + alpha * d
            if l1 > 0.0:
                x_new[x_new * orthant < 0] = 0.0
            alpha *= BACKTRACK
            try:
                f_new, g_new = fun_and_grad(x_new)
            except DomainError:
                continue
            obj_new = f_new + l1 * float(np.abs(x_new).sum())
            if not np.isfinite(obj_new):
                raise DivergenceError(it + 1)
            dgrad = float(np.dot(pg, x_new - x))
            if obj_new <= obj + ARMIJO_C * dgrad and obj_new <= obj:
                accepted = True
                break
        if not accepted:
            stop = "line_search"
            break

        it += 1
        s = x_new - x
        y = g_new - g
        if float(np.dot(s, y)) > CURVATURE_EPS:
            s_hist.append(s)
            y_hist.append(y)
        rel_change = abs(obj - obj_new) / max(1.0, abs(obj_new))
        x, g, obj = x_new, g_new, obj_new
        log.append(obj)
        if callback is not None:
            callback(it, obj, x)
        if rel_change < tolerance:
            stop = "tolerance"
            break

    return OwlQnResult(x=x, objective=obj, iterations=it, stop=stop, objective_log=log)
