"""karamata-kit: numerical tools for slow variation and log-averaged means.

The kit makes the classical machinery of regular variation executable:
a log-averaged integral operator and its closed-form inverse, a
variation-index estimator, slow-variation tests with oscillation
counterexamples, and uniformity scans for ratio residuals.
"""

__version__ = "0.1.0"

from .asymptotics import (
    ClaimedClass,
    ClassCheckReport,
    GeometricGrid,
    IndexEstimate,
    LimitVerdict,
    ProfileReport,
    SvReport,
    class_preservation_check,
    classify_limit,
    classify_rows,
    exponent_profile,
    rv_index,
    sv_test,
)
from .exprlang import (
    DomainError,
    EvalError,
    Expr,
    ExprSyntaxError,
    UnboundVariableError,
    differentiate,
    eval_array,
    evaluate,
    fold,
    format_expr,
    parse,
    variables,
)
from .karamata import (
    OperatorValue,
    apply_L,
    apply_L_detailed,
    apply_L_grid,
    apply_L_points,
    invert_L,
)
from .quad import (
    IntegralCache,
    PreconditionError,
    QuadResult,
    QuadTolerance,
    integrate_log,
)
from .uniformity import (
    AsymReport,
    GuctReport,
    HiReport,
    MultClosureReport,
    Region,
    ScanReport,
    condition_scan_310,
    guct_diagnose,
    hi_check,
    integral_asym_residual,
    interval_expand,
    karamata_uct_check,
    mult_closure_residual,
    uct_scan,
)

__all__ = [
    "__version__",
    # expression language
    "Expr",
    "parse",
    "evaluate",
    "eval_array",
    "differentiate",
    "fold",
    "format_expr",
    "variables",
    "ExprSyntaxError",
    "EvalError",
    "DomainError",
    "UnboundVariableError",
    # quadrature
    "QuadTolerance",
    "QuadResult",
    "IntegralCache",
    "integrate_log",
    "PreconditionError",
    # operator
    "apply_L",
    "apply_L_detailed",
    "apply_L_points",
    "apply_L_grid",
    "invert_L",
    "OperatorValue",
    # asymptotic classification
    "GeometricGrid",
    "LimitVerdict",
    "classify_limit",
    "classify_rows",
    "IndexEstimate",
    "rv_index",
    "SvReport",
    "sv_test",
    "ProfileReport",
    "exponent_profile",
    "ClaimedClass",
    "ClassCheckReport",
    "class_preservation_check",
    # uniformity and residual diagnostics
    "ScanReport",
    "uct_scan",
    "karamata_uct_check",
    "condition_scan_310",
    "Region",
    "HiReport",
    "hi_check",
    "GuctReport",
    "guct_diagnose",
    "MultClosureReport",
    "mult_closure_residual",
    "interval_expand",
    "AsymReport",
    "integral_asym_residual",
]
