"""Divisor counts in short windows, additive energy of power sets, and
Sidon-window verification."""

from .arith import (
    DivisorRange,
    Factorization,
    InputError,
    divisors_in_range,
    factorize,
    is_prime,
)
from .exponents import (
    CUBE_EXPONENT_LIMIT,
    CUBE_OBJECTIVE_ARGMAX,
    SQUARE_EXPONENT_LIMIT,
    ExponentResult,
    continuous_objective,
    cube_exponent,
    k_threshold_report,
    square_exponent,
)
from .lcmbound import (
    LcmBoundCertificate,
    LcmBoundInstance,
    counterexample_s1,
    verify_lcm_bound,
)
from .sidon import (
    SidonVerdict,
    cubes_window,
    is_sidon,
    squares_window,
    verify_window_range,
)
from .spectral import (
    Autocorrelation,
    RudinCertificate,
    TrigPolynomial,
    additive_energy,
    autocorrelation,
    frequency_set,
    l2_norm_sq,
    l4_norm_4,
    l4_quadrature_oracle,
    representation_counts,
    rudin_certificate,
    trivial_energy,
    unit_polynomial,
)
from .windows import (
    RuzsaEntry,
    WindowScanReport,
    cube_window_scan,
    ruzsa_scan,
    square_representations,
    square_window_scan,
    tau_interval,
    window_multiple_counts,
)

__version__ = "0.1.0"
