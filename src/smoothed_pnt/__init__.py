"""Numerics for exponentially smoothed prime sums and their zeta-zero side.

Modules:
    specfun   complex Gamma, zeta, zeta'/zeta, Hardy's Z
    sieve     segmented von Mangoldt sieve, its tables, and Chebyshev psi
    smooth    Psi(x), I(x), Delta(x), and the S/D metrics
    zeros     zero location, persistence, explicit-formula prediction
    metrics   W, omega family, zero-free-region profiles, 1-D minimizers
    goldbach  k-fold Lambda convolutions and the circle-quadrature identity
    pintz     Mellin/Gaussian smoothing integral and the Turan verifier
    cli       deterministic CSV/JSON experiment driver
"""

from .errors import (
    AccuracyError,
    AliasError,
    CapacityError,
    DomainError,
    EmptySetError,
    NearSingularError,
    NormalizationError,
    NumericsError,
    OrderError,
    ParseError,
    PoleError,
    RangeError,
    ToleranceError,
)
from .goldbach import ConvolutionTable, contour_extract, convolve_psik, psi2_centered, smooth_Fk
from .metrics import (
    EtaFunction,
    MetricsRow,
    eta_from_zeros,
    load_eta,
    metrics_row,
    metrics_rows,
    omega_eta,
    omega_from_value,
    omega_zero,
    varpi,
    zero_sum_W,
)
from .pintz import (
    PintzParams,
    U_integral,
    U_residue,
    gaussian_line_check,
    mellin_H_closed,
    mellin_H_quadrature,
    turan_bound,
    turan_bounds,
)
from .sieve import LambdaStream, LambdaTable, build_lambda, chebyshev_psi
from .smooth import (
    DELTA_LIMIT,
    DeltaBatch,
    SmoothedPoint,
    avg_metric,
    delta,
    delta_many,
    smooth_baseline,
    sup_metric,
    truncation_cutoff,
)
from .specfun import gamma_complex, hardy_Z, loggamma, rs_theta, zeta_em, zeta_logderiv
from .zeros import (
    ZeroSet,
    builtin_zeros,
    explicit_delta,
    find_zeros,
    load_zeros,
    riemann_vonmangoldt_count,
    save_zeros,
)

__version__ = "0.1.0"
