"""The sparse-sequence type Coeffs, the Expansion construction contract and the sample array."""

import ast
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabersplines.basis import build_basis
from fabersplines.dualcoeffs import Coeffs
from fabersplines.piecewise import bspline
from fabersplines.sampling import Expansion, SampledFunction, analyze, synthesize
from fabersplines.wavetransform import wavelet_analyze


def reference_runs(coeffs: dict, gap) -> list:
    """The dict-based run split that ``Coeffs.runs`` replaced, kept as its oracle."""
    ks = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
    cs = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
    k0, k1 = int(ks.min()), int(ks.max())
    parts = [(ks, cs, k0, k1)]
    if k1 - k0 > gap + 2 * len(ks):
        order = np.argsort(ks)
        ks, cs = ks[order], cs[order]
        cuts = np.flatnonzero(np.diff(ks) > gap) + 1
        parts = [(k, c, int(k[0]), int(k[-1])) for k, c in zip(np.split(ks, cuts), np.split(cs, cuts))]
    runs = []
    for k, c, a, b in parts:
        run = np.zeros(b - a + 1)
        run[k - a] = c
        runs.append((a, run))
    return runs


@pytest.mark.parametrize(
    "levels",
    [
        {0: {0: 1.0}, 3: {2**63: 1.0}},
        {0: {0: 1.0}, 3: {-(2**70): 1.0}},
        {0: {0.5: 1.0}},
        {0: {0: 1.0, 1.5: 2.0}},
        {-3: {0: 1.0}},
        {0.5: {0: 1.0}},
        {0: {0: math.nan}},
        {-1: {0: 1.0, 1: -math.inf}},
        {0: {0: 1.0}, 3: {2**52: 1.0}},
        {3: {-(2**52): 1.0, 0: 1.0}},
        {1075: {0: 1.0}},
        {-1: {0: 1.0}, 2100: {0: 1.0}},
        {0: {0: 1.0}, 2100: {5: 1.0}},
        {True: {0: 1.0}},
    ],
    ids=[
        "shift_2_63", "shift_minus_2_70", "half_shift", "mixed_shifts", "level_minus_3", "half_level", "nan", "inf",
        "shift_2_52", "shift_minus_2_52", "level_1075", "level_2100_f_norm_nan", "level_2100_f_norm_inf", "bool_level",
    ],
)
def test_unrepresentable_indices_and_values_are_refused(levels):
    # each of these used to build, then synthesized garbage, NaN or an OverflowError traceback,
    # or (levels 2100 and -1 or 0) had an f-norm of NaN or inf where the norm is finite
    with pytest.raises(ValueError):
        Expansion(2, levels)


@pytest.mark.parametrize("m", [13, 2.0, 1, True, "2", math.inf], ids=["13", "float_2", "1", "bool", "string_2", "inf"])
def test_orders_outside_2_to_12_are_refused(m):
    # Expansion(13, {}) and Expansion(2.0, {}) used to build; no basis synthesizes either
    with pytest.raises(ValueError, match="order"):
        Expansion(m, {})


LEVEL = '[{"j": 0, "coeffs": {"0": 1.0}}]'


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"0": 1.0}}, {"j": 0, "coeffs": {"1": 5.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"0": 1.0, "00": 5.0}}]}',
        '{"m": 2, "levels": [{"j": true, "coeffs": {"0": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0.5, "coeffs": {"0": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"0": true}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"0": "1.5"}}]}',
        '{"m": "2", "levels": %s}' % LEVEL,
        '{"m": 2.7, "levels": %s}' % LEVEL,
        '{"m": 13, "levels": %s}' % LEVEL,
        '{"m": 1e999, "levels": %s}' % LEVEL,
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"1_0": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {" 3 ": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"+3": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"03": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"-0": 1.0}}]}',
        '{"m": 2, "levels": [{"j": 0, "coeffs": {"0": 1%s}}]}' % ("0" * 400),
    ],
    ids=[
        "repeated_level", "shift_0_and_00", "bool_j", "half_j", "bool_value", "string_value", "string_m", "fractional_m", "m_13", "infinite_m",
        "key_1_0", "key_padded", "key_plus", "key_leading_zero", "key_minus_zero", "int_value_past_float_range",
    ],
)
def test_from_json_dict_refuses_what_the_file_format_refuses(text):
    # each used to build: the last of two levels won, "0" and "00" merged, j = 0.5 read as 0,
    # true as 1.0, "1.5" as 1.5, m = 2.7 as 2, m = 13 as an order no basis has (1e999: OverflowError);
    # the keys "1_0", " 3 ", "+3", "03" and "-0" were read by int() as 10, 3, 3, 3 and 0, and 10**400
    # raised OverflowError
    with pytest.raises(ValueError):
        Expansion.from_json_dict(json.loads(text))


def test_empty_levels_are_kept():
    exp = Expansion(2, {-1: {}, 0: {3: 0.0}})
    assert exp.levels == {-1: {}, 0: {3: 0.0}}
    assert exp.coeff(-1, 0) == 0.0 and exp.coeff(5, 0) == 0.0


@pytest.mark.parametrize("level", [{0: math.nan}, {0: 1.0}], ids=["nan", "plain_dict"])
def test_levels_are_read_only(level):
    # the levels used to be a writable dict: a NaN written there read back from coeff(),
    # and a plain dict level made synthesize raise AttributeError
    exp = Expansion(2, {0: {0: 1.0}})
    with pytest.raises(TypeError):
        exp.levels[1] = level
    for write in ("clear", "pop", "update", "setdefault"):
        assert not hasattr(exp.levels, write)
    assert exp.coeff(1, 0) == 0.0
    assert synthesize(exp, build_basis(2), np.arange(3.0)).tolist() == synthesize(Expansion(2, {0: {0: 1.0}}), build_basis(2), np.arange(3.0)).tolist()
    assert exp.levels == {0: {0: 1.0}} and repr(exp.levels) == "{0: Coeffs({0: 1.0})}"
    assert pickle.loads(pickle.dumps(exp)) == exp


def test_a_write_to_the_callers_arrays_moves_nothing():
    # Coeffs used to keep views of the caller's arrays: a later write changed a built
    # Expansion past its construction checks, and b_norm returned inf
    from fabersplines.norms import NormParams, b_norm, f_norm

    ks, cs = np.arange(3), np.array([1.0, 2.0, 3.0])
    exp = Expansion(2, {0: Coeffs(ks, cs), 2: Coeffs(ks, cs)})
    params = NormParams(1.0, 2.0, 2.0)
    norms = b_norm(exp, params), f_norm(exp, params)
    fresh = Expansion(2, {0: Coeffs(ks, cs), 2: Coeffs(ks, cs)})
    cs[0], ks[:] = math.inf, [5, 6, 7]
    assert dict(exp.levels[0]) == {0: 1.0, 1: 2.0, 2: 3.0} and dict(exp.levels[2]) == dict(exp.levels[0])
    assert (b_norm(exp, params), f_norm(exp, params)) == norms  # the held tables
    assert (b_norm(fresh, params), f_norm(fresh, params)) == norms  # tables built after the write


def test_arrays_are_read_only():
    lev = Expansion(2, {0: {2: 1.0, -1: 0.5}}).levels[0]
    assert lev.ks.dtype == np.int64 and lev.ks.tolist() == [-1, 2]
    with pytest.raises(ValueError):
        lev.cs[0] = 2.0
    f = SampledFunction(N=1, k_lo=-1, values=[1, 2.5])
    assert f.values.dtype == np.float64 and not f.values.flags.writeable
    assert f == SampledFunction(N=1, k_lo=-1, values=(1.0, 2.5)) != SampledFunction(N=1, k_lo=0, values=(1.0, 2.5))
    assert type(f.value_at(0)) is float


def test_nonzero_holds_fresh_read_only_arrays_of_the_nonzero_entries():
    vals = np.array([0.0, 1.5, -0.0, -2.0, 0.0, 3.0])
    (lev,) = Coeffs.nonzero_spans(vals, [(-2, 0, len(vals))])
    assert lev.ks.dtype == np.int64 and lev.cs.dtype == np.float64
    assert lev.items() == [(-1, 1.5), (1, -2.0), (3, 3.0)]  # 0.0 and -0.0 take no entry
    vals[:] = 7.0
    assert lev == Coeffs([-1, 1, 3], [1.5, -2.0, 3.0])
    assert not lev.ks.flags.writeable and not lev.cs.flags.writeable
    with pytest.raises(ValueError):
        lev.ks[0] = 0
    with pytest.raises(ValueError):
        lev.cs[0] = 0.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Coeffs.nonzero_spans(np.array([1.0, 0.0, bad]), [(0, 0, 3)])
    assert Coeffs.nonzero_spans(np.array([0.0, -0.0]), [(5, 0, 2)]) == [{}]


dense_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022 - 2.0**-1074, 1e308, -1e308]), st.floats(-1e3, 1e3)),
    max_size=40,
)


@st.composite
def dense_and_spans(draw):
    """Dense values and disjoint spans (k0, a, count) over them: empty, adjacent and out of order ones included."""
    vals = np.array(draw(dense_values), dtype=float)
    cuts = sorted(draw(st.lists(st.integers(0, len(vals)), min_size=2, max_size=10)))
    pieces = [(a, b - a) for a, b in zip(cuts, cuts[1:])]
    taken = draw(st.lists(st.sampled_from(pieces), unique=True) if pieces else st.just([]))
    starts = st.integers(-(2**52), 2**52)
    return vals, [(draw(starts), a, count) for a, count in draw(st.permutations(taken))]


@settings(max_examples=200, deadline=None)
@given(case=dense_and_spans(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_nonzero_spans_is_each_span_over_its_nonzero_entries(case, bad):
    vals, spans = case
    want = [[(k0 + i, float(vals[a + i])) for i in range(count) if vals[a + i] != 0.0] for k0, a, count in spans]
    levels = Coeffs.nonzero_spans(vals, spans)
    vals[:] = 7.0
    assert [lev.items() for lev in levels] == want
    for lev in levels:
        assert lev.ks.dtype == np.int64 and lev.cs.dtype == np.float64
        assert not lev.ks.flags.writeable and not lev.cs.flags.writeable
        assert (lev.cs != 0.0).all() and (np.diff(lev.ks) > 0).all()
    for at in {0, len(vals) // 2, len(vals)}:
        with pytest.raises(ValueError, match="finite"):
            Coeffs.nonzero_spans(np.insert(vals, at, bad), spans)


@pytest.mark.parametrize(
    "call",
    [
        lambda: analyze(SampledFunction(N=4, k_lo=-3, values=np.linspace(-1.0, 2.0, 40)), 3),
        lambda: wavelet_analyze(SampledFunction(N=4, k_lo=-3, values=np.linspace(-1.0, 2.0, 40)), 3, 2),
        lambda: wavelet_analyze(bspline(3).compose_dyadic(2, 1), 2, 1),
    ],
    ids=["lambda", "sampled_mu", "exact_mu"],
)
def test_an_analysis_builds_every_level_with_one_nonzero_spans_call(call, monkeypatch):
    calls, original = [], Coeffs.nonzero_spans.__func__
    monkeypatch.setattr(Coeffs, "nonzero_spans", classmethod(lambda cls, *args: calls.append(1) or original(cls, *args)))
    exp = call()
    assert len(calls) == 1 and exp.levels and min(exp.levels) == -1


keys = st.one_of(st.integers(-40, 40), st.integers(-(2**52) + 1, 2**52 - 1))
values = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))
sparse_levels = st.dictionaries(st.integers(-1, 8), st.dictionaries(keys, values, max_size=12), max_size=5)


@settings(max_examples=150, deadline=None)
@given(levels=sparse_levels, gap=st.integers(0, 200))  # a run is at most about gap x count long
def test_a_level_is_its_mapping(levels, gap):
    exp = Expansion(3, levels)
    for j, lev in levels.items():
        assert exp.levels[j] == lev and dict(exp.levels[j]) == lev
        assert list(exp.levels[j]) == sorted(lev)
        if lev:
            got, want = exp.levels[j].runs(gap), reference_runs(lev, gap)
            assert [k for k, _ in got] == [k for k, _ in want]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
    bits = repr(sorted(exp.levels.items()))  # repr tells -0.0 from 0.0
    back = Expansion.from_json_dict(json.loads(json.dumps(exp.to_json_dict())))
    assert back == exp and repr(sorted(back.levels.items())) == bits
    again = pickle.loads(pickle.dumps(exp))
    assert again == exp and repr(sorted(again.levels.items())) == bits
    assert all(not lev.ks.flags.writeable and not lev.cs.flags.writeable for lev in again.levels.values())


@pytest.mark.parametrize("gap", [0, 5, math.inf])
def test_contiguous_shifts_are_one_run_of_the_stored_values(gap):
    lev = Expansion(2, {0: {k: float(k) - 2.5 for k in range(-3, 9)}}).levels[0]
    ((k0, run),) = lev.runs(gap)
    assert k0 == -3 and run is lev.cs and not run.flags.writeable
    ((_, want),) = reference_runs(dict(lev), gap)
    assert np.array_equal(run, want)


def test_repr_is_the_same_in_a_fresh_process():
    # the benchmark fingerprints levels by repr across processes, so repr must come from the content
    rng = np.random.default_rng(5)
    levels = {
        j: {int(k): float(v) for k, v in zip(rng.integers(-(2**52), 2**52, 20), rng.normal(size=20))} | {0: 0.0, -3: -0.0}
        for j in (-1, 0, 4)
    }
    here = repr(sorted(Expansion(2, levels).levels.items()))
    code = (
        "import ast, sys; from fabersplines.sampling import Expansion; "
        "print(repr(sorted(Expansion(2, ast.literal_eval(sys.stdin.read())).levels.items())))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["fabersplines"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], input=repr(levels), capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == here
    assert ast.literal_eval(here.replace("Coeffs(", "(")) == sorted(levels.items())
