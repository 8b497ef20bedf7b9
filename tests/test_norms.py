"""Discrete sequence norms: exact identities, covariance, probes."""

import math

import numpy as np
import pytest

from fabersplines.families import bspline_bump, jump_function
from fabersplines.norms import (
    INF,
    NormParams,
    ParameterError,
    b_norm,
    besov_admissible_range,
    equivalence_probe,
    f_norm,
)
from fabersplines.sampling import FaberExpansion


def random_sparse_expansion(rng, levels=(-1, 0, 1, 3), per_level=5, spread=12):
    lev = {}
    for j in levels:
        ks = rng.choice(np.arange(-spread, spread), size=per_level, replace=False)
        lev[j] = {int(k): float(v) for k, v in zip(ks, rng.normal(size=per_level))}
    return FaberExpansion(2, lev)


class TestParams:
    def test_positive_required(self):
        with pytest.raises(ParameterError):
            NormParams(1.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            NormParams(1.0, 2.0, -1.0)

    def test_infinities_allowed(self):
        NormParams(1.0, INF, INF)


class TestBNorm:
    def test_single_coefficient(self):
        exp = FaberExpansion(2, {0: {0: 1.0}})
        assert b_norm(exp, NormParams(1.0, 2.0, 2.0)) == pytest.approx(1.0)
        # level 0 intervals have measure 1, any (r, p) gives 1 for a unit coeff
        assert b_norm(exp, NormParams(3.0, 0.5, 7.0)) == pytest.approx(1.0)

    def test_sup_form(self):
        exp = FaberExpansion(2, {0: {0: 1.0}, 1: {0: 1.0}})
        assert b_norm(exp, NormParams(1.0, INF, INF)) == pytest.approx(2.0)

    def test_level_minus_one_measure(self):
        exp = FaberExpansion(2, {-1: {0: 1.0, 5: 1.0}})
        # two unit coefficients on unit-length intervals
        assert b_norm(exp, NormParams(0.0, 1.0, 1.0)) == pytest.approx(2.0)
        assert b_norm(exp, NormParams(1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_homogeneous(self):
        rng = np.random.default_rng(1)
        exp = random_sparse_expansion(rng)
        for p, theta in [(0.5, 0.5), (1.0, 2.0), (2.0, INF), (INF, 1.5)]:
            params = NormParams(0.8, p, theta)
            base = b_norm(exp, params)
            assert b_norm(exp.scaled(-3.5), params) == pytest.approx(3.5 * base, rel=1e-12)

    def test_monotone_in_magnitude(self):
        rng = np.random.default_rng(2)
        exp = random_sparse_expansion(rng)
        bigger = FaberExpansion(2, {j: {k: 2.0 * abs(v) for k, v in lev.items()} for j, lev in exp.levels.items()})
        for params in (NormParams(1.0, 2.0, 2.0), NormParams(0.5, 0.7, 3.0)):
            assert b_norm(bigger, params) >= b_norm(exp, params)

    def test_empty(self):
        assert b_norm(FaberExpansion(2, {}), NormParams(1.0, 2.0, 2.0)) == 0.0


class TestFNorm:
    def test_single_coefficient(self):
        exp = FaberExpansion(2, {0: {0: 1.0}})
        assert f_norm(exp, NormParams(0.0, 2.0, 2.0)) == pytest.approx(1.0)

    def test_p_infinite_rejected(self):
        with pytest.raises(ParameterError):
            f_norm(FaberExpansion(2, {0: {0: 1.0}}), NormParams(1.0, INF, 2.0))

    def test_disjoint_same_level(self):
        exp = FaberExpansion(2, {2: {0: 3.0, 5: -1.0}})
        want = (3.0 + 1.0) * 2.0**-2
        assert f_norm(exp, NormParams(0.0, 1.0, 1.0)) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_equals_b_norm_when_theta_is_p(self, p):
        rng = np.random.default_rng(int(p * 10))
        for trial in range(20):
            exp = random_sparse_expansion(rng)
            params = NormParams(0.9, p, p)
            assert f_norm(exp, params) == pytest.approx(b_norm(exp, params), rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("r, p, theta", [(2.0, 2.0, 2.0), (1.5, 1.0, INF), (2.5, 0.5, 0.5), (0.3, 3.0, 0.7)])
    def test_equals_term_by_term_reference(self, r, p, theta):
        # the step-function integral written out cell by cell: M is the
        # finest level (at least 1), cell c is [c, c + 1) 2^-M, and the
        # level -1 interval [k - 1/2, k + 1/2) holds it when
        # k - 1/2 <= (c + 1/2) 2^-M < k + 1/2
        rng = np.random.default_rng(int(10 * r + p))
        for trial in range(10):
            exp = random_sparse_expansion(rng, levels=(-1, 0, 2, 4), spread=20)
            M = max(exp.levels)
            cells = [2**M * k + d for j, lev in exp.levels.items() for k in lev for d in (-(2**M), 2**M)]
            terms = []
            for c in range(min(cells), max(cells)):
                parts = []
                for j, lev in exp.levels.items():
                    k = (2 * c + 1 + 2**M) // 2 ** (M + 1) if j == -1 else c // 2 ** (M - j)
                    parts.append(2.0 ** (r * j) * abs(lev.get(k, 0.0)))
                inner = max(parts) if theta == INF else math.fsum(t**theta for t in parts) ** (1.0 / theta)
                terms.append(inner**p * 2.0**-M)
            want = math.fsum(terms) ** (1.0 / p)
            assert f_norm(exp, NormParams(r, p, theta)) == pytest.approx(want, rel=1e-13)

    def test_theta_inf_pointwise_sup(self):
        exp = FaberExpansion(2, {0: {0: 1.0}, 1: {0: 4.0}})
        # on [0, 1/2): max(1, 4 * 2^r); on [1/2, 1): 1
        r = 1.0
        want = ((8.0**2) * 0.5 + 1.0 * 0.5) ** 0.5
        assert f_norm(exp, NormParams(r, 2.0, INF)) == pytest.approx(want, rel=1e-13)


class TestLevelShiftCovariance:
    @pytest.mark.parametrize("r, p, theta", [(1.3, 2.0, 2.0), (0.5, 1.0, 3.0), (2.0, 0.5, 0.7)])
    def test_exact_factor(self, r, p, theta):
        rng = np.random.default_rng(5)
        lev = {j: {int(k): float(v) for k, v in zip(rng.integers(-9, 9, 4), rng.normal(size=4))} for j in (0, 1, 2)}
        exp = FaberExpansion(2, lev)
        shifted = FaberExpansion(2, {j + 1: dict(d) for j, d in lev.items()})
        params = NormParams(r, p, theta)
        factor = 2.0 ** (r - 1.0 / p)
        assert b_norm(shifted, params) == pytest.approx(factor * b_norm(exp, params), rel=1e-12)


class TestAdmissibleRange:
    def test_inside(self):
        assert besov_admissible_range(2, NormParams(2.0, 2.0, 2.0))

    def test_below_sampling_floor(self):
        assert not besov_admissible_range(2, NormParams(0.3, 2.0, 2.0))  # r < 1/p

    def test_above_order_ceiling(self):
        assert not besov_admissible_range(2, NormParams(4.5, 2.0, 2.0))  # r > 2m


class TestProbe:
    def test_smooth_bump_stabilizes(self):
        report = equivalence_probe(bspline_bump(8), 2, NormParams(2.0, 2.0, 2.0), range(3, 9))
        assert report["in_admissible_range"]
        ratios = [row["ratio"] for row in report["rows"][1:]]
        for ratio in ratios[-3:]:
            assert abs(ratio - 1.0) < 0.05

    def test_jump_diverges_when_r_exceeds_sampling_floor(self):
        report = equivalence_probe(jump_function(), 2, NormParams(2.0, 2.0, 2.0), range(3, 8))
        ratios = [row["ratio"] for row in report["rows"][1:]]
        # growth at rate 2^(r - 1/p) = 2^1.5, far from stabilization
        for ratio in ratios[-3:]:
            assert ratio > 2.0

    def test_zero_function(self):
        from fabersplines.families import TestFunction

        zero = TestFunction("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)), (0.0, 1.0))
        report = equivalence_probe(zero, 2, NormParams(2.0, 2.0, 2.0), range(3, 6))
        assert all(row["norm"] == 0.0 for row in report["rows"])
