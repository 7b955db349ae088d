"""Command-line front end: transform / eval / charpoly / verify.

Complex numbers are accepted as decimal strings like "0.5-0.25i" or as
[re, im] pairs (both components decimal strings or numbers); outputs render
complex values as [re, im] decimal-string pairs at the full working
precision.  Exit codes: 0 success / all identities pass, 1 verification
failure or skipped case, 2 usage or configuration error.

The environment variable IPDHYP_DIGITS overrides the default precision.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from typing import Sequence

import mpmath as mp

from . import verify as verify_mod
from .charpoly import build_L, build_P, build_Phat, build_Q, build_Qhat, build_T, find_roots, w_poly
from .errors import IpdHypError
from .hypeval import HypFunction, eval_pfq
from .kernel import MIN_DIGITS, ComplexValue, IntVector, ParamVector, cplx, set_precision
from .transforms import HypExpression

_NUMBER_RE = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def _parse_real(text: str) -> mp.mpf:
    if not _NUMBER_RE.match(text):
        raise ValueError(f"cannot parse number {text!r}")
    return mp.mpf(text)


def parse_complex(text) -> mp.mpc:
    """Parse "re+imi" decimal strings, bare reals, or [re, im] pairs."""
    if isinstance(text, (list, tuple)):
        if len(text) != 2:
            raise ValueError(f"complex pair must have two entries: {text!r}")
        return cplx(_parse_real(str(text[0]).strip()), _parse_real(str(text[1]).strip()))
    if isinstance(text, (int, float)):
        return cplx(text)
    text = str(text).strip().replace(" ", "")
    if not text:
        raise ValueError("empty complex literal")
    if "," in text:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"complex pair must have two entries: {text!r}")
        return cplx(_parse_real(parts[0]), _parse_real(parts[1]))
    if text[-1] not in "iIjJ":
        return cplx(_parse_real(text))
    body = text[:-1]
    # split real|imag at the last sign that is neither leading nor an
    # exponent sign
    split_at = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split_at = k
            break
    if split_at is None:
        re_text, im_text = "", body
    else:
        re_text, im_text = body[:split_at], body[split_at:]
    if im_text in ("", "+"):
        imag = mp.mpf(1)
    elif im_text == "-":
        imag = mp.mpf(-1)
    else:
        imag = _parse_real(im_text)
    real = _parse_real(re_text) if re_text else mp.mpf(0)
    return cplx(real, imag)


def format_complex(z) -> list:
    z = cplx(z)
    return [mp.nstr(z.real, mp.mp.dps), mp.nstr(z.imag, mp.mp.dps)]


def _integral(value, key: str) -> int:
    """A JSON number with an integral value, such as 2 or 2.0."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"params entry {key!r} must hold integers, got {value!r}")


def _listed(value, key: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"params file needs a list under {key!r}")
    return value


def _expression_doc(expr: HypExpression) -> dict:
    terms = []
    for term in expr.terms:
        entry = {
            "coeff": format_complex(term.coeff),
            "x_power": term.x_power,
            "prefactor_exponent": format_complex(term.prefactor_exponent),
            "arg_map": term.arg_map,
            "fun": None,
        }
        if term.fun is not None:
            entry["fun"] = {
                "num": [format_complex(u) for u in term.fun.num],
                "den": [format_complex(v) for v in term.fun.den],
            }
        terms.append(entry)
    return {"terms": terms}


#: Readers, (value, key) -> parameter, of the params entry types that the
#: theorem table and the polynomial table declare.
_READERS = {
    ComplexValue: lambda value, key: parse_complex(value),
    ParamVector: lambda value, key: ParamVector(parse_complex(v) for v in _listed(value, key)),
    IntVector: lambda value, key: IntVector(_integral(v, key) for v in _listed(value, key)),
    int: _integral,
    str: lambda value, key: str(value),
}


def _read_params(path: str, keys: dict, defaults: dict) -> dict:
    """The entries ``keys`` names, read by type, with ``defaults`` for missing ones."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("params file must hold a JSON object")
    doc = dict(defaults, **doc)
    for key in keys:
        if key not in doc:
            raise ValueError(f"params file is missing {key!r}")
    return {key: _READERS[kind](doc[key], key) for key, kind in keys.items()}


def _cmd_transform(args) -> int:
    check = verify_mod.IDENTITIES[args.theorem].check
    expr = check.rhs(_read_params(args.params, check.keys, check.defaults))
    out = {"theorem": args.theorem, "expression": _expression_doc(expr)}
    if args.x is not None:
        x = parse_complex(args.x)
        out["x"] = format_complex(x)
        out["value"] = format_complex(expr.evaluate(x))
    print(json.dumps(out, indent=2))
    return 0


def _cmd_eval(args) -> int:
    num = [parse_complex(v) for v in args.num.split(",")] if args.num else []
    den = [parse_complex(v) for v in args.den.split(",")] if args.den else []
    x = parse_complex(args.x)
    tol = mp.mpf(args.tol) if args.tol else None
    result = eval_pfq(HypFunction(ParamVector(num), ParamVector(den)), x, tol)
    print(
        json.dumps(
            {
                "value": format_complex(result.value),
                "terms_used": result.terms_used,
                "tail_bound": mp.nstr(result.tail_bound, 8),
            },
            indent=2,
        )
    )
    return 0


_C = ComplexValue
_FM = {"f": ParamVector, "m": IntVector}

#: ``charpoly --which`` -> (builder, params keys by type, defaults).
_POLYNOMIALS = {
    "Q": (build_Q, dict(_FM, b=_C, c=_C, route=str), {"route": "eq5"}),
    "P": (build_P, dict(_FM, b=_C, c=_C), {}),
    "Qhat": (build_Qhat, dict(_FM, a=_C, b=_C, c=_C), {}),
    "Phat": (build_Phat, dict(_FM, a=_C, b=_C, c=_C), {}),
    "W": (w_poly, dict(_FM, b=_C), {}),
    "T": (partial(build_T, variant="T"), dict(_FM, b=_C, p=int), {"p": 1}),
    "Tstar": (partial(build_T, variant="Tstar"), dict(_FM, a=_C, b=_C, p=int), {"p": 1}),
    "L": (partial(build_L, variant="L"), dict(_FM, a=_C, d=_C, e=_C, b=_C), {}),
    "Lhat": (partial(build_L, variant="Lhat"), dict(_FM, a=_C, d=_C, e=_C, b=_C), {}),
}


def _cmd_charpoly(args) -> int:
    build, keys, defaults = _POLYNOMIALS[args.which]
    poly = build(**_read_params(args.params, keys, defaults))
    roots = find_roots(poly)
    out = {
        "which": args.which,
        "degree": poly.degree,
        "coeffs": [format_complex(c) for c in poly.coeffs],
        "roots": [format_complex(r) for r in roots.roots],
        "root_residual": mp.nstr(roots.residual, 8),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_verify(args) -> int:
    ids = None
    if args.only is not None:
        ids = [tok for tok in (s.strip() for s in args.only.split(",")) if tok]
    tol = mp.mpf(args.tol) if args.tol else None
    report = verify_mod.run_suite(
        ids=ids, seed=args.seed, count=args.count, tol=tol
    )
    rendered = verify_mod.report_to_json(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    print(rendered)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipdhyp",
        description=(
            "Transformations of IPD generalized hypergeometric functions, "
            "with numerical verification against direct series evaluation."
        ),
    )
    parser.add_argument(
        "--digits",
        type=int,
        default=None,
        help="working precision in decimal digits (default 40, env IPDHYP_DIGITS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_transform = sub.add_parser("transform", help="emit a transformed expression as JSON")
    theorems = [
        identity_id
        for identity_id, entry in verify_mod.IDENTITIES.items()
        if isinstance(entry.check, verify_mod.TwoSided)
    ]
    p_transform.add_argument("--theorem", required=True, choices=theorems)
    p_transform.add_argument("--params", required=True, help="JSON parameter file")
    p_transform.add_argument("--x", default=None, help="optional evaluation point")
    p_transform.set_defaults(func=_cmd_transform)

    p_eval = sub.add_parser("eval", help="evaluate pFq(num; den; x) by direct series")
    p_eval.add_argument("--num", default="", help="comma-separated top parameters")
    p_eval.add_argument("--den", default="", help="comma-separated bottom parameters")
    p_eval.add_argument("--x", required=True, help="argument")
    p_eval.add_argument("--tol", default=None, help="series tolerance")
    p_eval.set_defaults(func=_cmd_eval)

    p_charpoly = sub.add_parser("charpoly", help="print characteristic polynomial and roots")
    p_charpoly.add_argument("--which", required=True, choices=list(_POLYNOMIALS))
    p_charpoly.add_argument("--params", required=True, help="JSON parameter file")
    p_charpoly.set_defaults(func=_cmd_charpoly)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    p_verify.add_argument("--only", default=None, help="comma-separated identity ids")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--count", type=int, default=20)
    p_verify.add_argument("--digits", type=int, default=argparse.SUPPRESS,
                          help=argparse.SUPPRESS)
    p_verify.add_argument("--tol", default=None, help="relative residual tolerance")
    p_verify.add_argument("--json", default=None, help="also write the report here")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    digits = args.digits
    try:
        env = os.environ.get("IPDHYP_DIGITS")
        if digits is None and env:
            if not re.fullmatch(r"\s*[+-]?\d+\s*", env) or int(env) < MIN_DIGITS:
                raise ValueError(
                    f"IPDHYP_DIGITS must be an integer >= {MIN_DIGITS}, got {env!r}"
                )
            digits = int(env)
        if digits is not None:
            set_precision(digits)
        return args.func(args)
    except (IpdHypError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
