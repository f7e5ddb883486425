import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from oracles import reference_orthant, reference_projection, reference_pseudo_gradient
from pertcrf.optim import (
    DivergenceError,
    DomainError,
    _orthant,
    _project,
    _pseudo_gradient,
    minimize_owlqn,
)


def quadratic(center):
    center = np.asarray(center, dtype=float)

    def fg(x):
        d = x - center
        return 0.5 * float(d @ d), d

    return fg


def ill_conditioned(center, scales):
    """0.5 * sum(scales * (x - center)^2): curvature differs by coordinate,
    so quasi-Newton steps approach the minimum over many iterations."""
    center = np.asarray(center, dtype=float)

    def fg(x):
        d = x - center
        return 0.5 * float(scales * d @ d), scales * d

    return fg


class TestSmooth:
    def test_quadratic_minimum(self):
        a = np.array([3.0, -2.0, 0.5, 7.0])
        res = minimize_owlqn(quadratic(a), np.zeros(4), max_iterations=100, tolerance=1e-12)
        assert np.allclose(res.x, a, atol=1e-6)
        assert res.stop == "tolerance"

    def test_matches_scipy_on_logistic(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 6))
        w_true = rng.normal(size=6)
        y = (X @ w_true + 0.3 * rng.normal(size=40) > 0).astype(float)

        def fg(w):
            z = X @ w
            p = 1.0 / (1.0 + np.exp(-z))
            f = float(-(y * np.log(p + 1e-12) + (1 - y) * np.log(1 - p + 1e-12)).sum())
            f += 0.05 * float(w @ w)
            g = X.T @ (p - y) + 0.1 * w
            return f, g

        ours = minimize_owlqn(fg, np.zeros(6), max_iterations=200, tolerance=1e-12)
        ref = scipy_minimize(fg, np.zeros(6), jac=True, method="L-BFGS-B")
        assert ours.objective == pytest.approx(ref.fun, abs=1e-6)

    def test_objective_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 8))
        A = A @ A.T + np.eye(8)
        b = rng.normal(size=8)

        def fg(x):
            return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

        res = minimize_owlqn(fg, np.zeros(8), max_iterations=80)
        diffs = np.diff(res.objective_log)
        assert np.all(diffs <= 1e-12)
        assert res.objective_log[-1] <= res.objective_log[0]


class TestL1:
    def test_soft_threshold_solution(self):
        # min 0.5*(x-a)^2 + c|x| has the closed form sign(a)*max(|a|-c, 0)
        a = np.array([2.0, -0.05, 0.3, -4.0, 0.09])
        c = 0.1
        res = minimize_owlqn(quadratic(a), np.zeros(5), l1=c, max_iterations=200, tolerance=1e-14)
        expected = np.sign(a) * np.maximum(np.abs(a) - c, 0.0)
        assert np.allclose(res.x, expected, atol=1e-6)

    def test_exact_zeros(self):
        a = np.array([0.05, -0.03, 1.0])
        res = minimize_owlqn(quadratic(a), np.zeros(3), l1=0.1, max_iterations=100)
        assert res.x[0] == 0.0 and res.x[1] == 0.0
        assert res.x[2] != 0.0

    def test_stronger_l1_means_sparser(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0, 1, size=50)
        weak = minimize_owlqn(quadratic(a), np.zeros(50), l1=0.1, max_iterations=200)
        strong = minimize_owlqn(quadratic(a), np.zeros(50), l1=1.0, max_iterations=200)
        assert np.sum(strong.x == 0.0) > np.sum(weak.x == 0.0)

    def test_penalized_objective_logged(self):
        a = np.array([1.0])
        res = minimize_owlqn(quadratic(a), np.zeros(1), l1=0.5, max_iterations=100, tolerance=1e-14)
        # solution 0.5, objective 0.5*0.25 + 0.5*0.5 = 0.375
        assert res.objective == pytest.approx(0.375, abs=1e-8)


class TestControl:
    def test_max_iterations_respected(self):
        res = minimize_owlqn(quadratic(np.full(30, 5.0)), np.zeros(30), max_iterations=3, tolerance=1e-16)
        assert res.iterations <= 3

    def test_tolerance_stops_early(self):
        fg = ill_conditioned(np.full(30, 5.0), np.logspace(0, 3, 30))
        res = minimize_owlqn(fg, np.zeros(30), max_iterations=100, tolerance=1e-3)
        assert res.stop == "tolerance"
        assert res.iterations < 100

    def test_callback_sees_every_accepted_step(self):
        seen = []
        minimize_owlqn(
            quadratic(np.array([2.0, -1.0])),
            np.zeros(2),
            max_iterations=50,
            callback=lambda it, obj, x: seen.append((it, obj)),
        )
        assert [it for it, _ in seen] == list(range(1, len(seen) + 1))
        objs = [obj for _, obj in seen]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_divergence_raises_with_iteration(self):
        calls = {"n": 0}

        def fg(x):
            calls["n"] += 1
            if calls["n"] > 1:
                return float("nan"), np.zeros_like(x)
            return float(x @ x), 2 * x + 1.0

        with pytest.raises(DivergenceError) as err:
            minimize_owlqn(fg, np.zeros(3), max_iterations=10)
        assert err.value.iteration == 1

    def test_already_optimal(self):
        res = minimize_owlqn(quadratic(np.zeros(3)), np.zeros(3), max_iterations=10)
        assert res.iterations == 0
        assert res.stop == "zero_step"


class TestDomain:
    """Trial points where the objective raises DomainError count as failed
    steps of the line search."""

    @staticmethod
    def bounded(center, radius):
        fg = quadratic(center)

        def inside(x):
            if np.abs(x).max() > radius:
                raise DomainError(f"outside radius {radius}")
            return fg(x)

        return inside

    def test_backtracks_into_domain(self):
        # The minimum lies inside, but the first quasi-Newton steps
        # overshoot the bound.
        a = np.array([3.0, -2.0, 0.5, 7.0])
        res = minimize_owlqn(self.bounded(a, 7.5), np.zeros(4), max_iterations=100, tolerance=1e-12)
        assert np.allclose(res.x, a, atol=1e-6)
        assert res.stop == "tolerance"

    def test_minimum_outside_stays_inside(self):
        res = minimize_owlqn(self.bounded(np.full(3, 10.0), 2.0), np.zeros(3), max_iterations=50)
        assert np.abs(res.x).max() <= 2.0
        assert res.objective < 0.5 * 3 * 10.0**2

    def test_raised_at_start_propagates(self):
        with pytest.raises(DomainError, match="outside radius"):
            minimize_owlqn(self.bounded(np.zeros(2), 1.0), np.full(2, 3.0))


class TestStopReason:
    def test_max_iterations(self):
        fg = ill_conditioned(np.full(30, 5.0), np.logspace(0, 3, 30))
        res = minimize_owlqn(fg, np.zeros(30), max_iterations=3, tolerance=1e-16)
        assert res.stop == "max_iterations"
        assert res.iterations == 3

    def test_zero_step_at_kink(self):
        # Under l1 = 0.1 the minimum of 0.5*(x-a)^2 + 0.1|x| is 0 for these
        # a: the pseudo-gradient at 0 is zero, so there is no step to take.
        res = minimize_owlqn(quadratic(np.array([0.05, -0.03])), np.zeros(2), l1=0.1)
        assert res.stop == "zero_step"
        assert res.iterations == 0
        assert np.all(res.x == 0.0)

    def test_line_search_failure_is_not_convergence(self):
        # A gradient of the wrong sign makes every trial step go uphill.
        def fg(x):
            return float(x @ x), -2 * x - 1.0

        res = minimize_owlqn(fg, np.zeros(3), max_iterations=10)
        assert res.stop == "line_search"
        assert res.iterations == 0


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@st.composite
def kinks(draw):
    """(x, grad, l1) with signed zeros in x and grad, and gradients exactly
    at +-l1, where the pseudo-gradient switches branch."""
    l1 = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0, 2.0**-30]))
    n = draw(st.integers(1, 40))
    edges = st.sampled_from([0.0, -0.0, l1, -l1, 2 * l1, -2 * l1, 5e-324, -5e-324])
    value = st.one_of(edges, st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=True))
    x = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    grad = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return x, grad, l1


class TestBranchFree:
    """The optimizer's arithmetic forms of the pseudo-gradient, orthant and
    projection against the masked forms in oracles, as bit patterns."""

    @given(kinks())
    def test_pseudo_gradient_bit_for_bit(self, case):
        x, grad, l1 = case
        assert np.array_equal(bits(_pseudo_gradient(x, grad, l1)), bits(reference_pseudo_gradient(x, grad, l1)))

    @given(kinks())
    def test_orthant_bit_for_bit_but_the_sign_of_zero(self, case):
        # A zero orthant entry only enters the sign test of the projection,
        # where -0.0 and 0.0 act alike; the arithmetic form gives 0.0.
        x, grad, l1 = case
        pg = _pseudo_gradient(x, grad, l1)
        assert np.array_equal(bits(_orthant(x, pg)), bits(reference_orthant(x, pg) + 0.0))

    @given(kinks(), st.sampled_from([1.0, 0.5, 2.0**-40]))
    def test_projection_bit_for_bit_with_positive_zeros(self, case, alpha):
        x, grad, l1 = case
        pg = _pseudo_gradient(x, grad, l1)
        orthant = _orthant(x, pg)
        x_new = x + alpha * -pg
        projected = x_new.copy()
        _project(projected, orthant)
        assert np.array_equal(bits(projected), bits(reference_projection(x_new, orthant) + 0.0))
        assert not np.any(np.signbit(projected) & (projected == 0))

    def test_edges_by_hand(self):
        l1 = 0.5
        x = np.array([0.0, -0.0, 0.0, 0.0, 0.0, 1.0, -1.0, -0.0])
        grad = np.array([0.5, -0.5, 0.7, -0.7, -0.0, -0.0, 0.0, -0.0])
        expected = np.array([0.0, 0.0, 0.7 - 0.5, -0.7 + 0.5, 0.0, 0.5, -0.5, 0.0])
        pg = _pseudo_gradient(x, grad, l1)
        assert np.array_equal(bits(pg), bits(expected))
        assert np.array_equal(bits(pg), bits(reference_pseudo_gradient(x, grad, l1)))
