"""qfraclab: a numerical laboratory for q-series, continued fractions, and
the spectral theory of the orthogonal polynomials they generate.

The package evaluates every object by at least two independent routes
(closed forms vs recurrences, forward vs backward fraction evaluation,
phase-amplitude density vs Stieltjes inversion, q-integral vs closed
moments) and ships the cross-checks as a runnable acceptance suite
(``qfraclab verify`` or :mod:`qfraclab.verify`).

``import qfraclab`` loads only the exception types.  Every other name below
(``qfraclab.Params``, ``qfraclab.density_nevai``, the submodules such as
``qfraclab.measure``) is a lazy attribute: the first access imports its home
module and caches the object here, so a one-shot command pays only for the
modules it uses.
"""

from .errors import DomainError, PoleError, QFracError, RangeError, TruncationError

__version__ = "0.1.0"

# Home module of every lazily exported name; the keys are also exported, as
# the submodules themselves, and each submodule's __all__ is its row.
_EXPORTS = {
    "qseries": ("phi", "qpochhammer", "qpochhammer_inf", "sum_series", "theta"),
    "recurrence": (
        "ConvergentSeq",
        "JCoeffs",
        "JFamily",
        "Params",
        "b0_family",
        "entry16_family",
        "hirschhorn_family",
        "monic_alpha",
        "monic_beta",
        "monic_family",
        "monic_ratio",
        "run_jfraction",
        "run_monic",
    ),
    "cfrac": ("backward_convergent", "convergent", "eval_backward", "hirschhorn_cf"),
    "genfun": ("KINDS", "gf_eval", "gf_radius"),
    "measure": (
        "density_inversion",
        "density_nevai",
        "gram_matrix",
        "norm_squared",
        "rho_select",
        "series_F",
        "series_G",
        "series_R",
        "stieltjes_transform",
    ),
    "asymptotics": ("asymptotic_P", "asymptotic_Q", "asymptotic_Qstar", "b0_support_bound", "stieltjes_b0"),
    "moments": ("moment_pk_closed", "moment_pk_integral", "qintegral", "weight_f"),
    "convergents": ("a0_closed", "entry15", "entry16", "g_function", "hirschhorn_closed", "ram_Q", "ram_Qstar"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# The acceptance suites of qfraclab.verify, here so that the CLI's parser can
# offer them without importing verify (and mpmath).
SUITE_NAMES = ("qseries", "convergents", "measure", "moments", "asymptotics", "all")

__all__ = ["DomainError", "PoleError", "QFracError", "RangeError", "TruncationError", "errors", *_EXPORTS, *_HOME]


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
