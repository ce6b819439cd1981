"""Certified enclosures for double integrals from Ostrowski-type bounds.

Layers, bottom up: reference quadrature and an expression front end with
exact symbolic mixed partials; piecewise-linear comparison kernels and
their moment formulas; the inequality catalogue (rules t1..t5); a
three-way audit of the kernel-weighted expansion identity (oracle vs
stated vs derived); and interval enclosures built on the oracle-validated
derived form. The `ostrocube` CLI fronts all of it with a stable JSON
schema.
"""

from .core import (
    BivariateFunction,
    DegenerateDomain,
    DerivativeBound1D,
    DerivativeBounds,
    Enclosure,
    EngineError,
    EvalPoint,
    Interval1D,
    InvalidBounds,
    InvalidConfig,
    MissingMixedPartial,
    PointOutsideDomain,
    QuadConfig,
    Rectangle,
    UnivariateFunction,
    derivative_bounds,
    make_point,
    make_rectangle,
)
from .enclosure import (
    ComparisonReport,
    EnclosureReport,
    compare_bounds,
    composite_enclosure,
    single_cell_enclosure,
)
from .expr import (
    DomainError,
    LexError,
    ParseError,
    XorShift64Star,
    differentiate,
    eval_expr,
    parse_expression,
    random_polynomial,
    to_bivariate,
    to_string,
    to_univariate,
    tokenize,
)
from .identity import (
    IdentityReport,
    Quadrant,
    full_expansion_derived,
    full_expansion_verbatim,
    identity_report,
    kernel_weighted_integral,
    quadrant_expansion_verbatim,
)
from .kernels import (
    AnchorOnBoundary,
    Kernel1D,
    OutOfRange,
    abs_moment,
    abs_moment_1d,
    kernel_eval,
    kernel_jump,
    signed_moment,
    signed_moment_1d,
)
from .quadrature import (
    GLRule,
    NonFiniteSample,
    UnsupportedOrder,
    estimate_bounds,
    gl_rule,
    integrate_1d,
    integrate_2d,
)
from .rules import (
    Lambda,
    PointOutsideLambdaBox,
    RuleOutcome,
    cheng_1d,
    ostrowski_1d,
    qiaoling_functional,
    quarter_rule_functional,
    sarikaya_functional,
)

__version__ = "0.1.0"
