"""The package namespace: every exported name resolves, lazily, to the object
of its home module, and ``import qfraclab`` alone loads only the exception
types."""

import importlib
import sys

import pytest

import qfraclab

# The exported names, frozen: home module -> names defined there.
EXPORTS = {
    "errors": ("DomainError", "PoleError", "QFracError", "RangeError", "TruncationError"),
    "qseries": ("phi", "qpochhammer", "qpochhammer_inf", "sum_series", "theta"),
    "recurrence": (
        "ConvergentSeq", "JCoeffs", "JFamily", "Params", "b0_family", "entry16_family",
        "hirschhorn_family", "monic_alpha", "monic_beta", "monic_family", "monic_ratio",
        "run_jfraction", "run_monic",
    ),
    "cfrac": ("backward_convergent", "convergent", "eval_backward", "hirschhorn_cf"),
    "genfun": ("KINDS", "gf_eval", "gf_radius"),
    "measure": (
        "density_inversion", "density_nevai", "gram_matrix", "norm_squared", "rho_select",
        "series_F", "series_G", "series_R", "stieltjes_transform",
    ),
    "asymptotics": ("asymptotic_P", "asymptotic_Q", "asymptotic_Qstar", "b0_support_bound", "stieltjes_b0"),
    "moments": ("moment_pk_closed", "moment_pk_integral", "qintegral", "weight_f"),
    "convergents": ("a0_closed", "entry15", "entry16", "g_function", "hirschhorn_closed", "ram_Q", "ram_Qstar"),
}


def test_every_exported_name_is_its_home_object():
    wrong = []
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"qfraclab.{module}")
        for name in names:
            if getattr(qfraclab, name) is not getattr(home, name):
                wrong.append(f"{module}.{name}")
    assert not wrong


def test_each_module_all_is_its_row_of_the_name_table():
    # a name in a module's __all__ but not in the table is unreachable from the
    # package; one in the table but not in __all__ is missed by a star import
    for module, names in qfraclab._EXPORTS.items():
        home = importlib.import_module(f"qfraclab.{module}")
        assert set(home.__all__) == set(names), module
    assert {m: set(n) for m, n in qfraclab._EXPORTS.items()} == {
        m: set(n) for m, n in EXPORTS.items() if m != "errors"
    }


def test_submodules_are_attributes():
    for module in EXPORTS:
        assert getattr(qfraclab, module) is importlib.import_module(f"qfraclab.{module}")


def test_dir_lists_every_exported_name_before_any_is_loaded(run_fresh):
    names = sorted({*EXPORTS, *(n for names in EXPORTS.values() for n in names), "__version__"})
    code = (
        "import qfraclab\n"
        f"missing = [n for n in {names!r} if n not in dir(qfraclab)]\n"
        "assert not missing, missing\n"
        "assert 'Params' not in vars(qfraclab)\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qfraclab.no_such_name  # noqa: B018
    assert not hasattr(qfraclab, "Measure")


def test_from_import_of_submodules():
    from qfraclab import measure, verify

    assert measure is sys.modules["qfraclab.measure"]
    assert verify is sys.modules["qfraclab.verify"]


def test_star_import_binds_every_exported_name():
    ns = {}
    exec("from qfraclab import *", ns)
    for module, names in EXPORTS.items():
        for name in names:
            assert ns[name] is getattr(importlib.import_module(f"qfraclab.{module}"), name)


def test_names_load_on_first_use_in_a_fresh_interpreter(run_fresh):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qfraclab\n"
        "ours = lambda: sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'qfraclab')\n"
        "assert ours() == ['qfraclab', 'qfraclab.errors'], ours()\n"
        "assert 'Params' not in vars(qfraclab)\n"
        "p = qfraclab.Params(0.4, 0.3, -0.25, 0.2)\n"
        "assert vars(qfraclab)['Params'] is sys.modules['qfraclab.recurrence'].Params\n"
        "assert 'qfraclab.measure' not in sys.modules\n"
        "from qfraclab import measure, verify\n"
        "assert measure is sys.modules['qfraclab.measure'], measure\n"
        "assert verify is sys.modules['qfraclab.verify'], verify\n"
        "assert qfraclab.density_nevai is measure.density_nevai\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
