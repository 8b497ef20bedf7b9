"""Higher-order Faber spline sampling discretization.

Library layout:
  piecewise        exact B-spline values N_k(i) and the shift-sum kernel that
                   sums B-spline series on a grid; exact piecewise-polynomial
                   arithmetic (B-splines, lifts) as the oracle
  wavelets         the filter taps and correlation sequences built from the
                   B-spline values; the exact Chui-Wang wavelet as the oracle
  dualcoeffs       dual wavelet / dual scaling coefficients as inverse filters
  basis            lifted Faber-spline basis and cardinal interpolant
  sampling         dyadic sampling analysis/synthesis (the operator S_N)
  wavetransform    biorthogonal Chui-Wang analysis/synthesis
  norms            discrete Besov / Triebel-Lizorkin sequence norms
  families         built-in test-function families
  cli              the ``faber`` command
"""

from .piecewise import (
    InvariantError,
    MomentError,
    OrderError,
    PiecewisePolynomial,
    SmoothnessError,
    bspline,
    differentiate,
    inner_product,
    moments,
    shift_sum,
    taylor_lift,
)
from .wavelets import AutocorrSequence, WaveletSpec, autocorr, scaling_crosscorr, wavelet
from .dualcoeffs import (
    Coeffs,
    DualCoeffTable,
    RootSplit,
    UnitCircleError,
    dual_scaling_coeffs,
    dual_wavelet_coeffs,
    palindromic_roots,
    verify_biorthogonality,
)
from .basis import DyadicIndex, FaberBasisSpec, build_basis, eval_L, eval_s
from .sampling import (
    Expansion,
    ResolutionError,
    SampledFunction,
    analyze,
    lambda_coeff,
    spline_interpolate,
    synthesize,
)
from .wavetransform import mu_coeff, wavelet_analyze, wavelet_synthesize
from .norms import NormParams, ParameterError, b_norm, equivalence_probe, f_norm

__version__ = "0.1.0"
