"""Discrete sequence norms: exact identities, covariance, probes."""

import math
import time
import tracemalloc

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

    @pytest.mark.parametrize(
        "levels, want",
        [
            # the level -1 intervals span 1001 units and level 40 cuts 2^-40: a common
            # dyadic refinement would take 2^40 cells per unit, the segments are five
            ({-1: {0: 1.0, 1000: 1.0}, 40: {0: 1.0}}, math.sqrt(2**120 + 2**-3)),
            # two keys 10^15 apart in one level: three segments
            ({0: {0: 1.0, 10**15: 1.0}}, math.sqrt(2.0)),
        ],
        ids=["deep_levels", "far_apart_keys"],
    )
    def test_far_apart_intervals_stay_small_and_exact(self, levels, want):
        tracemalloc.start()
        start = time.perf_counter()
        got = f_norm(FaberExpansion(2, levels), NormParams(2.0, 2.0, 2.0))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got == want
        assert elapsed < 1.0
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("k", [2**52, -(2**52), 2**63, -(2**70)])
    def test_shift_past_exact_float_endpoints_is_refused(self, k):
        exp = FaberExpansion(2, {0: {0: 1.0}, 3: {k: 1.0}})
        with pytest.raises(ValueError, match="2\\^52"):
            f_norm(exp, NormParams(1.0, 2.0, 2.0))
        assert b_norm(exp, NormParams(0.0, 2.0, 2.0)) == pytest.approx(math.sqrt(1.0 + 2.0**-3), rel=1e-15)

    def test_largest_exact_shifts(self):
        k = 2**52 - 1
        exp = FaberExpansion(2, {-1: {k: 1.0}, 0: {-k: 2.0}})
        assert f_norm(exp, NormParams(0.0, 2.0, 2.0)) == math.sqrt(5.0)


class TestFloatRange:
    """Level weights 2^(rj) past the float range: a value when representable, inf otherwise."""

    deep = FaberExpansion(2, {400: {0: 1.0}})

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_deep_level_is_exact(self, norm):
        assert norm(self.deep, NormParams(2.0, 2.0, 2.0)) == pytest.approx(2.0**600, rel=1e-15)

    def test_deep_level_sup_form(self):
        assert b_norm(self.deep, NormParams(2.0, 2.0, INF)) == pytest.approx(2.0**600, rel=1e-15)

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_past_the_float_range_is_inf(self, norm):
        assert norm(FaberExpansion(2, {1100: {0: 1.0}}), NormParams(2.0, 2.0, 2.0)) == INF

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_equal_terms_at_far_apart_levels(self, norm):
        # at r = 1/p = 1 a unit coefficient contributes 1 at every level
        exp = FaberExpansion(2, {0: {0: 1.0}, 1074: {0: 1.0}})
        assert norm(exp, NormParams(1.0, 1.0, 1.0)) == 2.0

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_huge_coefficients(self, norm):
        exp = FaberExpansion(2, {0: {0: 1e-300, 5: 1e300}, 3: {1: 1e300}})
        # level 0 gives 1e300, level 3 gives 2^3 * 1e300 * 2^(-3/2)
        assert norm(exp, NormParams(1.0, 2.0, 2.0)) == pytest.approx(3e300, rel=1e-15)

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_deep_level_of_zeros_adds_nothing(self, norm):
        exp = FaberExpansion(2, {0: {0: 1.0}, 400: {0: 0.0}})
        assert norm(exp, NormParams(2.0, 2.0, 2.0)) == 1.0

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_zero_beside_a_tiny_coefficient(self, norm):
        # 1e-200 squared underflows unless the level's scale is taken over its nonzero terms
        exp = FaberExpansion(2, {0: {0: 0.0, 1: 1e-200}})
        assert norm(exp, NormParams(1.0, 2.0, 2.0)) == pytest.approx(1e-200, rel=1e-15, abs=0.0)


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
