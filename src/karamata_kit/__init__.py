"""karamata-kit: numerical tools for slow variation and log-averaged means.

The kit makes the classical machinery of regular variation executable:
a log-averaged integral operator and its closed-form inverse, a
variation-index estimator, slow-variation tests with oscillation
counterexamples, and uniformity scans for ratio residuals.

Each public name is imported from its module on first use (PEP 562), so
``import karamata_kit`` loads neither numpy nor the numeric modules; the
command line's help and its flag checks never need them.
"""

import importlib

__version__ = "0.1.0"

# each module's public names, in ``__all__`` order
_EXPORTS = {
    # expression language
    "exprlang": (
        "Expr", "parse", "evaluate", "eval_array", "differentiate", "fold", "format_expr",
        "variables", "ExprSyntaxError", "EvalError", "DomainError", "UnboundVariableError",
    ),
    # quadrature
    "quad": ("QuadTolerance", "QuadResult", "IntegralCache", "integrate_log", "PreconditionError"),
    # operator
    "karamata": (
        "apply_L", "apply_L_detailed", "apply_L_points", "apply_L_grid", "invert_L",
        "OperatorValue",
    ),
    # asymptotic classification
    "asymptotics": (
        "GeometricGrid", "LimitVerdict", "classify_limit", "classify_rows", "IndexEstimate",
        "rv_index", "SvReport", "sv_test", "ProfileReport", "exponent_profile", "ClaimedClass",
        "ClassCheckReport", "class_preservation_check",
    ),
    # uniformity and residual diagnostics
    "uniformity": (
        "ScanReport", "uct_scan", "karamata_uct_check", "condition_scan_310", "Region",
        "HiReport", "hi_check", "GuctReport", "guct_diagnose", "MultClosureReport",
        "mult_closure_residual", "interval_expand", "AsymReport", "integral_asym_residual",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """A public name, or one of the modules it comes from, imported on first
    use and then kept as a plain attribute.  An ImportError inside the
    module propagates as it is."""
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
