"""qfraclab: a numerical laboratory for q-series, continued fractions, and
the spectral theory of the orthogonal polynomials they generate.

The package evaluates every object by at least two independent routes
(closed forms vs recurrences, forward vs backward fraction evaluation,
phase-amplitude density vs Stieltjes inversion, q-integral vs closed
moments) and ships the cross-checks as a runnable acceptance suite
(``qfraclab verify`` or :mod:`qfraclab.verify`).
"""

from .errors import DomainError, PoleError, QFracError, RangeError, TruncationError
from .qseries import (
    DEFAULT_CONTROL,
    PhiSpec,
    SeriesControl,
    phi,
    qbinomial,
    qmultinomial,
    qpochhammer,
    qpochhammer_inf,
    theta,
)
from .recurrence import (
    ConvergentSeq,
    JCoeffs,
    JFamily,
    Params,
    b0_coeffs,
    b0_family,
    entry16_family,
    hirschhorn_coeffs,
    hirschhorn_family,
    monic_alpha,
    monic_beta,
    monic_ratio,
    run_jfraction,
    run_monic,
    run_monic_scaled,
)
from .cfrac import backward_convergent, convergent, eval_backward, hirschhorn_cf
from .genfun import gf_eval, gf_radius
from .measure import (
    density_inversion,
    density_nevai,
    gram_matrix,
    norm_squared,
    rho_select,
    series_F,
    series_G,
    series_R,
    stieltjes_transform,
)
from .asymptotics import (
    asymptotic_P,
    asymptotic_Q,
    asymptotic_Qstar,
    b0_support_bound,
    stieltjes_b0,
)
from .moments import QIntegrand, moment_pk_closed, moment_pk_integral, qintegral, weight_f
from .convergents import (
    a0_closed,
    entry15,
    entry16,
    g_function,
    hirschhorn_closed,
    ram_Q,
    ram_Qstar,
)

__version__ = "0.1.0"
