"""Transformations of generalized hypergeometric functions with integral
parameter differences (IPD), with every identity numerically verifiable
against an independent series oracle.

The package splits into:

* :mod:`ipdhyp.kernel`     -- precision context, Pochhammer/gamma machinery;
* :mod:`ipdhyp.coeffs`     -- the C, D, Y, W and Norlund coefficient families;
* :mod:`ipdhyp.charpoly`   -- characteristic polynomials and root extraction;
* :mod:`ipdhyp.hypeval`    -- direct pFq series evaluation (the oracle);
* :mod:`ipdhyp.transforms` -- the transformation engine;
* :mod:`ipdhyp.verify`     -- the batch verification harness;
* :mod:`ipdhyp.cli`        -- the ``ipdhyp`` command-line front end.
"""

from .coeffs import IpdSpec, NorlundArgs, coeff_C, coeff_D, coeff_Y, norlund_g
from .charpoly import (
    CPoly,
    RootSet,
    build_L,
    build_P,
    build_Phat,
    build_Q,
    build_Qhat,
    build_T,
    find_roots,
    w_poly,
)
from .errors import IpdHypError, RootWarning
from .hypeval import EvalResult, HypFunction, eval_pfq, eval_pfq_many, eval_prefactor, mobius_arg, pfq
from .kernel import (
    ComplexValue,
    IntVector,
    ParamVector,
    cplx,
    genfunc_coeffs,
    get_precision,
    pochhammer,
    pochhammer_vec,
    set_precision,
    stirling2,
)
from .transforms import (
    HypExpression,
    HypTerm,
    apply_degenerate_p,
    apply_degenerate_single,
    apply_degenerate_vector,
    apply_mp1,
    apply_mp2,
    apply_two_free,
    expand_to_gauss,
    ipd_function,
    meijer_norlund_ipd,
    meijer_norlund_ipd_many,
)
from .verify import IDENTITY_IDS, IdentityCase, VerificationReport, run_suite, sample_params

__version__ = "0.1.0"

__all__ = [
    "ComplexValue",
    "CPoly",
    "EvalResult",
    "HypExpression",
    "HypFunction",
    "HypTerm",
    "IDENTITY_IDS",
    "IdentityCase",
    "IntVector",
    "IpdHypError",
    "IpdSpec",
    "NorlundArgs",
    "ParamVector",
    "RootSet",
    "RootWarning",
    "VerificationReport",
    "apply_degenerate_p",
    "apply_degenerate_single",
    "apply_degenerate_vector",
    "apply_mp1",
    "apply_mp2",
    "apply_two_free",
    "build_L",
    "build_P",
    "build_Phat",
    "build_Q",
    "build_Qhat",
    "build_T",
    "cplx",
    "coeff_C",
    "coeff_D",
    "coeff_Y",
    "eval_pfq",
    "eval_pfq_many",
    "eval_prefactor",
    "expand_to_gauss",
    "find_roots",
    "genfunc_coeffs",
    "get_precision",
    "ipd_function",
    "meijer_norlund_ipd",
    "meijer_norlund_ipd_many",
    "mobius_arg",
    "norlund_g",
    "pfq",
    "pochhammer",
    "pochhammer_vec",
    "run_suite",
    "sample_params",
    "set_precision",
    "stirling2",
    "w_poly",
]
