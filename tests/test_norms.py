"""Discrete sequence norms: exact identities, covariance, probes."""

import math
import pickle
import time
import tracemalloc

import norm_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabersplines import norms
from fabersplines.families import bspline_bump, get_family, jump_function
from fabersplines.norms import (
    INF,
    NormParams,
    ParameterError,
    b_norm,
    besov_admissible_range,
    equivalence_probe,
    f_norm,
)
from fabersplines.piecewise import shift_sum
from fabersplines.sampling import Expansion, SampledFunction, analyze


def random_sparse_expansion(rng, levels=(-1, 0, 1, 3), per_level=5, spread=12):
    lev = {}
    for j in levels:
        ks = rng.choice(np.arange(-spread, spread), size=per_level, replace=False)
        lev[j] = {int(k): float(v) for k, v in zip(ks, rng.normal(size=per_level))}
    return Expansion(2, lev)


class TestParams:
    def test_positive_required(self):
        with pytest.raises(ParameterError):
            NormParams(1.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            NormParams(1.0, 2.0, -1.0)

    def test_infinities_allowed(self):
        NormParams(1.0, INF, INF)

    @pytest.mark.parametrize("r", [INF, -INF, math.nan])
    def test_r_must_be_finite(self, r):
        # a non-finite r used to reach the norms: b_norm raised a bare ValueError after
        # numpy RuntimeWarnings, f_norm returned nan
        with pytest.raises(ParameterError, match="r must be finite"):
            NormParams(r, 2.0, 2.0)


class TestBNorm:
    def test_single_coefficient(self):
        exp = Expansion(2, {0: {0: 1.0}})
        assert b_norm(exp, NormParams(1.0, 2.0, 2.0)) == pytest.approx(1.0)
        # level 0 intervals have measure 1, any (r, p) gives 1 for a unit coeff
        assert b_norm(exp, NormParams(3.0, 0.5, 7.0)) == pytest.approx(1.0)

    def test_sup_form(self):
        exp = Expansion(2, {0: {0: 1.0}, 1: {0: 1.0}})
        assert b_norm(exp, NormParams(1.0, INF, INF)) == pytest.approx(2.0)

    def test_level_minus_one_measure(self):
        exp = Expansion(2, {-1: {0: 1.0, 5: 1.0}})
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
        bigger = Expansion(2, {j: {k: 2.0 * abs(v) for k, v in lev.items()} for j, lev in exp.levels.items()})
        for params in (NormParams(1.0, 2.0, 2.0), NormParams(0.5, 0.7, 3.0)):
            assert b_norm(bigger, params) >= b_norm(exp, params)

    def test_empty(self):
        assert b_norm(Expansion(2, {}), NormParams(1.0, 2.0, 2.0)) == 0.0


class TestFNorm:
    @pytest.mark.parametrize("levels", [{}, {0: {}}])
    def test_no_coefficients_is_zero(self, levels):
        for norm in (f_norm, b_norm):
            assert norm(Expansion(2, levels), NormParams(1.0, 2.0, 2.0)) == 0.0

    def test_single_coefficient(self):
        exp = Expansion(2, {0: {0: 1.0}})
        assert f_norm(exp, NormParams(0.0, 2.0, 2.0)) == pytest.approx(1.0)

    def test_p_infinite_rejected(self):
        with pytest.raises(ParameterError):
            f_norm(Expansion(2, {0: {0: 1.0}}), NormParams(1.0, INF, 2.0))

    def test_disjoint_same_level(self):
        exp = Expansion(2, {2: {0: 3.0, 5: -1.0}})
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
        exp = Expansion(2, {0: {0: 1.0}, 1: {0: 4.0}})
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
        got = f_norm(Expansion(2, levels), NormParams(2.0, 2.0, 2.0))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got == want
        assert elapsed < 1.0
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("k", [2**52, -(2**52)])
    def test_shift_past_exact_float_endpoints_is_refused(self, k):
        # the refusal is Expansion's, so no expansion that reaches f_norm holds such a shift
        with pytest.raises(ValueError, match="2\\^52"):
            Expansion(2, {0: {0: 1.0}, 3: {k: 1.0}})

    def test_largest_exact_shifts(self):
        k = 2**52 - 1
        exp = Expansion(2, {-1: {k: 1.0}, 0: {-k: 2.0}})
        assert f_norm(exp, NormParams(0.0, 2.0, 2.0)) == math.sqrt(5.0)


class TestFloatRange:
    """Level weights 2^(rj) past the float range: a value when representable, inf otherwise."""

    deep = Expansion(2, {400: {0: 1.0}})

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_deep_level_is_exact(self, norm):
        assert norm(self.deep, NormParams(2.0, 2.0, 2.0)) == pytest.approx(2.0**600, rel=1e-15)

    def test_deep_level_sup_form(self):
        assert b_norm(self.deep, NormParams(2.0, 2.0, INF)) == pytest.approx(2.0**600, rel=1e-15)

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_past_the_float_range_is_inf(self, norm):
        # 2^(2 j) 2^(-j / 2) = 2^1611 at the deepest level
        assert norm(Expansion(2, {1074: {0: 1.0}}), NormParams(2.0, 2.0, 2.0)) == INF

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_equal_terms_at_far_apart_levels(self, norm):
        # at r = 1/p = 1 a unit coefficient contributes 1 at every level
        exp = Expansion(2, {0: {0: 1.0}, 1074: {0: 1.0}})
        assert norm(exp, NormParams(1.0, 1.0, 1.0)) == 2.0

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_huge_coefficients(self, norm):
        exp = Expansion(2, {0: {0: 1e-300, 5: 1e300}, 3: {1: 1e300}})
        # level 0 gives 1e300, level 3 gives 2^3 * 1e300 * 2^(-3/2)
        assert norm(exp, NormParams(1.0, 2.0, 2.0)) == pytest.approx(3e300, rel=1e-15)

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_deep_level_of_zeros_adds_nothing(self, norm):
        exp = Expansion(2, {0: {0: 1.0}, 400: {0: 0.0}})
        assert norm(exp, NormParams(2.0, 2.0, 2.0)) == 1.0

    @pytest.mark.parametrize("norm", [b_norm, f_norm])
    def test_zero_beside_a_tiny_coefficient(self, norm):
        # 1e-200 squared underflows unless the level's scale is taken over its nonzero terms
        exp = Expansion(2, {0: {0: 0.0, 1: 1e-200}})
        assert norm(exp, NormParams(1.0, 2.0, 2.0)) == pytest.approx(1e-200, rel=1e-15, abs=0.0)


class TestLevelShiftCovariance:
    @pytest.mark.parametrize("r, p, theta", [(1.3, 2.0, 2.0), (0.5, 1.0, 3.0), (2.0, 0.5, 0.7)])
    def test_exact_factor(self, r, p, theta):
        rng = np.random.default_rng(5)
        lev = {j: {int(k): float(v) for k, v in zip(rng.integers(-9, 9, 4), rng.normal(size=4))} for j in (0, 1, 2)}
        exp = Expansion(2, lev)
        shifted = Expansion(2, {j + 1: dict(d) for j, d in lev.items()})
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

    @pytest.mark.parametrize("p", [0.25, 0.1])
    def test_at_or_below_the_integrability_floor(self, p):
        assert not besov_admissible_range(2, NormParams(1.0, p, 2.0))  # p <= 1/(2m)


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

    def test_zero_window_is_never_at_the_noise_floor(self):
        from fabersplines.families import TestFunction

        zero = TestFunction("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)), (0.0, 1.0))
        report = equivalence_probe(zero, 2, NormParams(2.0, 2.0, 2.0), range(3, 6))
        assert not any(row["at_noise_floor"] for row in report["rows"])

    @pytest.mark.parametrize(
        "family, m, r, first_flagged",
        [("bump", 5, 6.0, 7), ("bump", 3, 4.0, 9), ("gaussian", 2, 2.0, None), ("jump", 2, 2.0, None)],
    )
    def test_rows_past_the_noise_floor_are_flagged(self, family, m, r, first_flagged):
        # bump (an order-8 B-spline) is in the admissible range, yet its rows read 1.23, 34.6 and 59.9
        # at m = 5, r = 6 and 5.06 at m = 3, r = 4: the b-norm of rounding noise, not of f
        report = equivalence_probe(get_family(family), m, NormParams(r, 2.0, 2.0), range(3, 14))
        assert report["in_admissible_range"]
        flagged = [row["N"] for row in report["rows"] if row["at_noise_floor"]]
        assert flagged == ([] if first_flagged is None else list(range(first_flagged, 14)))
        assert all(abs(row["ratio"] - 1.0) < 0.05 for row in report["rows"][1:] if family != "jump" and not row["at_noise_floor"])


def spline_sampled(m):
    """An order-2m spline at level 3 on [0, 4] with fixed random coefficients, and its support."""
    h = np.random.default_rng(m).normal(size=4 * 8 - 2 * m)
    return (lambda x: shift_sum(2 * m, h, 0, np.ldexp(x, 3))), (0.0, 4.0)


ORACLE_PARAMS = [(2.0, 2.0, 2.0), (1.5, 1.0, INF), (2.5, 0.5, 0.5), (0.3, 3.0, 0.7)]


def assert_norms_match_oracle(exp, param_sets):
    for r, p, theta in param_sets:
        params = NormParams(r, p, theta)
        assert b_norm(exp, params) == norm_oracle.b_norm(exp, r, p, theta)
        if p != INF:
            assert f_norm(exp, params) == norm_oracle.f_norm(exp, r, p, theta)


class TestHeldLayout:
    """The parameter-free work is held per expansion and changes no bit of any norm."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("family", ["bump", "gaussian", "jump", "spline"])
    def test_analyze_outputs_equal_the_oracle(self, family, m):
        if family == "spline":
            f, (lo, hi) = spline_sampled(m)
        else:
            fam = get_family(family)
            f, (lo, hi) = fam.f, fam.support
        for N in range(3, 13):
            exp = analyze(SampledFunction.from_callable(f, N, lo, hi), m)
            assert_norms_match_oracle(exp, ORACLE_PARAMS)  # the first call builds the tables
            assert_norms_match_oracle(exp, ORACLE_PARAMS[::-1])  # the later ones read them

    def test_tables_are_built_once_per_expansion(self, monkeypatch):
        counts = {"_scaled_levels": 0, "_segment_layout": 0}
        for name in counts:
            def counted(exp, build=getattr(norms, name), name=name):
                counts[name] += 1
                return build(exp)

            monkeypatch.setattr(norms, name, counted)
        fam = get_family("gaussian")
        exp = analyze(SampledFunction.from_callable(fam.f, 8, *fam.support), 2)
        for r, p, theta in ORACLE_PARAMS[:3]:
            f_norm(exp, NormParams(r, p, theta))
            b_norm(exp, NormParams(r, p, theta))
        assert counts == {"_scaled_levels": 1, "_segment_layout": 1}
        b_norm(exp.scaled(2.0), NormParams(2.0, 2.0, 2.0))  # a new expansion builds its own
        assert counts == {"_scaled_levels": 2, "_segment_layout": 1}

    def test_held_tables_leave_equality_repr_and_pickle_alone(self):
        exp = Expansion(2, {-1: {0: 1.0}, 3: {2: -0.5, 7: 0.25}})
        before = (repr(exp), pickle.dumps(exp))
        f_norm(exp, NormParams(2.0, 2.0, 2.0))
        assert (repr(exp), pickle.dumps(exp)) == before
        again = pickle.loads(before[1])
        assert again == exp and f_norm(again, NormParams(1.0, 1.0, 1.0)) == f_norm(exp, NormParams(1.0, 1.0, 1.0))


deep_levels = st.one_of(st.integers(-1, 12), st.integers(-1, 1074))
far_keys = st.one_of(st.integers(-40, 40), st.integers(-(2**52) + 1, 2**52 - 1))
any_values = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-300, 1e-300))
param_sets = st.tuples(
    st.one_of(st.floats(-4.0, 4.0), st.floats(-1e6, 1e6)),
    st.one_of(st.floats(0.1, 8.0), st.just(INF)),
    st.one_of(st.floats(0.1, 8.0), st.just(INF)),
)


@settings(max_examples=300, deadline=None)
@given(
    levels=st.dictionaries(deep_levels, st.dictionaries(far_keys, any_values, max_size=8), max_size=5),
    param_list=st.lists(param_sets, min_size=1, max_size=4),
)
def test_sparse_expansions_equal_the_oracle(levels, param_list):
    # levels to 1074, shifts to 2^52 - 1, zeros, 2^+-1000 values, |r j| past 2^29, in any call order
    assert_norms_match_oracle(Expansion(2, levels), param_list)
