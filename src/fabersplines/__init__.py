"""Higher-order Faber spline sampling discretization.

Library layout:
  piecewise        exact piecewise-polynomial arithmetic (B-splines, lifts)
  wavelets         Chui-Wang spline wavelets and correlation sequences
  dualcoeffs       dual wavelet / dual scaling coefficients via residues
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
    Rational,
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
    DualCoeffTable,
    ResidueConsistencyError,
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
    FaberExpansion,
    ResolutionError,
    SampledFunction,
    analyze,
    lambda_coeff,
    spline_interpolate,
    synthesize,
)
from .wavetransform import (
    QuadratureResolutionError,
    WaveletExpansion,
    mu_coeff,
    wavelet_analyze,
    wavelet_synthesize,
)
from .norms import NormParams, ParameterError, b_norm, equivalence_probe, f_norm

__version__ = "0.1.0"
