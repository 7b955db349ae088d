"""Reference checks made apart from the program.

Every check recomputes at P+20 digits with mpmath alone (``mpmath.hyper``,
gamma functions and Pochhammer symbols), never with ipdhyp's oracle or
engine, and compares at the report's own tolerance 10^-(P-12), relative in
the report's sense |value - reference| / max(1, |reference|).  Each check
returns a list of failure reasons for one operation; an empty list passes.

``self_test`` feeds the checks one value perturbed by 10^-(P-14) relative
and one swapped pair of roots, and confirms that each is reported as failed.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from types import SimpleNamespace

import mpmath as mp

from ipdhyp import transforms
from ipdhyp.coeffs import IpdSpec
from ipdhyp.errors import RootWarning

from workloads import CATALOG_IDS, DIGITS, EXPR_NAMES, POLY_NAMES, OP_ERRORS

REF_DIGITS = DIGITS + 20
TOL = mp.mpf(10) ** -(DIGITS - 12)
PERTURBATION = mp.mpf(10) ** -(DIGITS - 14)


def relative(value, reference) -> mp.mpf:
    return abs(value - reference) / max(1, abs(reference))


def _verdict(what: str, error: mp.mpf) -> list:
    return [] if error <= TOL else [f"{what}: {mp.nstr(error, 3)} > {mp.nstr(TOL, 3)}"]


# --------------------------------------------------------------------------
# oracle-points
# --------------------------------------------------------------------------


def _closed_form(form: str, p: dict):
    if form == "gauss":
        a, b, c = p["a"], p["b"], p["c"]
        return mp.gamma(c) * mp.gamma(c - a - b) * mp.rgamma(c - a) * mp.rgamma(c - b)
    if form == "dixon":
        a, b, c = p["a"], p["b"], p["c"]
        h = a / 2
        return (
            mp.gamma(1 + h) * mp.gamma(1 + a - b) * mp.gamma(1 + a - c) * mp.gamma(1 + h - b - c)
            * mp.rgamma(1 + a) * mp.rgamma(1 + h - b) * mp.rgamma(1 + h - c)
            * mp.rgamma(1 + a - b - c)
        )
    if form == "karlsson-minton":
        a, b = p["a"], p["b"]
        value = mp.gamma(b + 1) * mp.gamma(1 - a) * mp.rgamma(b + 1 - a)
        for fi, mi in zip(p["f"], p["m"]):
            value *= mp.rf(fi - b, mi) / mp.rf(fi, mi)
        return value
    if form == "saalschutz":
        n, a, b, c = p["n"], p["a"], p["b"], p["c"]
        return mp.rf(c - a, n) * mp.rf(c - b, n) / (mp.rf(c, n) * mp.rf(c - a - b, n))
    raise ValueError(f"unknown closed form {form!r}")


def check_oracle_point(op, output) -> list:
    with mp.workdps(REF_DIGITS):
        if op.form == "hyper":
            reference = mp.hyper(op.num, op.den, op.x)
        else:
            reference = _closed_form(op.form, op.params)
        return _verdict(f"{op.regime} {op.form}", relative(output.value, reference))


# --------------------------------------------------------------------------
# expressions (engine and catalog)
# --------------------------------------------------------------------------


def expression_value(expr, x):
    """Sum of coeff * x^j * (1-x)^mu * pFq(num; den; arg(x)) over the terms,
    with mpmath.hyper and the principal branch of the power."""
    total = mp.mpc(0)
    for t in expr.terms:
        value = mp.mpc(t.coeff)
        if t.x_power:
            value *= x**t.x_power
        if t.prefactor_exponent != 0:
            value *= mp.exp(t.prefactor_exponent * mp.log(1 - x))
        if t.fun is not None:
            arg = x / (x - 1) if t.arg_map == transforms.ARG_MOBIUS else x
            value *= mp.hyper(list(t.fun.num), list(t.fun.den), arg)
        total += value
    return total


def two_sided_residual(expr, num, den, xs) -> mp.mpf:
    """Worst relative gap between pFq(num; den; x) and the expression."""
    with mp.workdps(REF_DIGITS):
        worst = mp.mpf(0)
        for x in xs:
            x = mp.mpc(x)
            worst = max(worst, relative(expression_value(expr, x), mp.hyper(num, den, x)))
        return worst


def _shifted(f, m) -> list:
    return [fi + mi for fi, mi in zip(f, m)]


# (num, den) of the left sides, from a dict of the sampled parameters
def _ipd_sides(p, c):
    return [p["a"], p["b"]] + _shifted(p["f"], p["m"]), [c] + list(p["f"])


def _vector_sides(p):
    num = [p["a"]] + list(p["b"]) + _shifted(p["f"], p["m"])
    return num, [bj + pj for bj, pj in zip(p["b"], p["p"])] + list(p["f"])


def _two_free_sides(p):
    num = [p["a"], p["d"], p["b"]] + _shifted(p["f"], p["m"])
    return num, [p["e"], p["b"] + 1] + list(p["f"])


# --------------------------------------------------------------------------
# engine
# --------------------------------------------------------------------------


def coefficient_deviation(c1, c2) -> mp.mpf:
    """Normwise relative deviation between two coefficient vectors."""
    n = max(len(c1), len(c2))
    c1 = list(c1) + [0] * (n - len(c1))
    c2 = list(c2) + [0] * (n - len(c2))
    scale = max([abs(c) for c in c1] + [abs(c) for c in c2] + [1])
    return max(abs(x - y) for x, y in zip(c1, c2)) / scale


def backward_error(coeffs, root) -> mp.mpf:
    """|p(r)| / sum |c_k| |r|^k."""
    high_first = list(reversed(coeffs))
    return abs(mp.polyval(high_first, root)) / mp.polyval(
        [abs(c) for c in high_first], abs(root)
    )


def _engine_left_sides(s) -> dict:
    params = vars(s)
    ipd, two_free = _ipd_sides(params, s.c), _two_free_sides(params)
    degenerate = _ipd_sides(params, s.b + s.p)
    return {
        "mp1": ipd,
        "mp2": ipd,
        "two_free_first": two_free,
        "two_free_second": two_free,
        "degenerate_eq29": degenerate,
        "degenerate_eq31": degenerate,
    }


def check_engine_spec(s, output) -> list:
    polys, roots, exprs = output["polys"], output["roots"], output["exprs"]
    reasons = []
    with mp.workdps(REF_DIGITS):
        fm = mp.fprod(mp.rf(fi, mi) for fi, mi in zip(s.f, s.m))
        scaled_q = [fm * c for c in polys["Q"].coeffs]
        reasons += _verdict("P = (f)_m Q", coefficient_deviation(polys["P"].coeffs, scaled_q))
        reasons += _verdict(
            "Qhat = Phat", coefficient_deviation(polys["Qhat"].coeffs, polys["Phat"].coeffs)
        )
        reasons += _verdict(
            "Q eq5 = Q eq7", coefficient_deviation(polys["Q"].coeffs, polys["Q_eq7"].coeffs)
        )
        for name in POLY_NAMES:
            found = list(roots[name].roots)
            degree = len(polys[name].coeffs) - 1
            if len(found) != degree:
                reasons.append(f"{name}: {len(found)} roots for degree {degree}")
            for r in found:
                reasons += _verdict(f"{name} root backward error", backward_error(polys[name].coeffs, r))
    sides = _engine_left_sides(s)
    for name in EXPR_NAMES:
        num, den = sides[name]
        reasons += _verdict(name, two_sided_residual(exprs[name], num, den, [s.x]))
    return reasons


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------


def _spec(p) -> IpdSpec:
    return IpdSpec(b=p["b"], f=p["f"], m=p["m"], a=p["a"], c=p.get("c"))


#: Two-sided identities: id -> params -> (right side from the program's
#: transform, (num, den) of the left side built here).
TWO_SIDED = {
    "MP1": lambda p: (transforms.apply_mp1(_spec(p), route=p["route"]), _ipd_sides(p, p["c"])),
    "MP2": lambda p: (transforms.apply_mp2(_spec(p), route=p["route"]), _ipd_sides(p, p["c"])),
    "COR1": lambda p: (transforms.expand_to_gauss(_spec(p)), _ipd_sides(p, p["c"])),
    "THM3_EQ19": lambda p: (
        transforms.apply_degenerate_single(_spec(p), variant="eq19"),
        _ipd_sides(p, p["b"] + 1),
    ),
    "THM3_EQ20": lambda p: (
        transforms.apply_degenerate_single(_spec(p), variant="eq20"),
        _ipd_sides(p, p["b"] + 1),
    ),
    "THM4_EQ29": lambda p: (
        transforms.apply_degenerate_p(_spec(p), p["p"], variant="eq29"),
        _ipd_sides(p, p["b"] + p["p"]),
    ),
    "THM4_EQ31": lambda p: (
        transforms.apply_degenerate_p(_spec(p), p["p"], variant="eq31"),
        _ipd_sides(p, p["b"] + p["p"]),
    ),
    "VEC_EQ27": lambda p: (
        transforms.apply_degenerate_vector(p["b"], p["p"], p["a"], p["f"], p["m"], variant="eq27"),
        _vector_sides(p),
    ),
    "VEC_EQ28": lambda p: (
        transforms.apply_degenerate_vector(p["b"], p["p"], p["a"], p["f"], p["m"], variant="eq28"),
        _vector_sides(p),
    ),
    "THM5_FIRST": lambda p: (
        transforms.apply_two_free(p["a"], p["d"], p["e"], p["b"], p["f"], p["m"], variant="first"),
        _two_free_sides(p),
    ),
    "THM5_SECOND": lambda p: (
        transforms.apply_two_free(p["a"], p["d"], p["e"], p["b"], p["f"], p["m"], variant="second"),
        _two_free_sides(p),
    ),
}


def _two_sided_case(case) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RootWarning)
        expr, (num, den) = TWO_SIDED[case.identity_id](case.params)
    return expr, num, den


def _check_two_sided(case, expr, num, den) -> list:
    return _verdict(
        f"{case.identity_id} case 0 recomputed",
        two_sided_residual(expr, num, den, case.x_samples),
    )


def _check_two_sided_case(case) -> list:
    try:
        expr, num, den = _two_sided_case(case)
    except OP_ERRORS as exc:
        return [f"{case.identity_id} right side: {type(exc).__name__}: {exc}"]
    return _check_two_sided(case, expr, num, den)


def _report_problems(text: str, code: int, count: int, results: list) -> tuple:
    """(problems of the whole report, {identity id: problems}).

    The report must list CATALOG_IDS with ``count`` cases each and agree
    with the case results the run observed; a case that failed on its own
    is counted by ``check_catalog_round``, not here.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], {}
    statuses = [r.status for r in results]
    n_fail, n_skip = statuses.count("fail"), statuses.count("skipped")
    overall = []
    # a skip may exit 0 or not (see CHANGES.md); the skipped case fails below
    clean = n_fail == n_skip == 0
    if code != doc.get("exit_code") or (clean and code != 0) or (n_fail and code == 0):
        overall.append(f"exit code {code}, report {doc.get('exit_code')}")
    if (doc.get("failed"), doc.get("skipped")) != (n_fail, n_skip):
        overall.append(f"report counts {doc.get('failed')} failed, {doc.get('skipped')} skipped")
    entries = {e.get("id"): e for e in doc.get("identities", [])}
    if list(entries) != list(CATALOG_IDS):
        overall.append(f"report lists {list(entries)}")
    per_id = {}
    for identity in CATALOG_IDS:
        e = entries.get(identity)
        if e is None:
            per_id[identity] = ["missing from the report"]
            continue
        own = [r.status for r in results if r.identity_id == identity]
        status = "fail" if "fail" in own else "skipped" if "skipped" in own else "pass"
        problems = []
        if e.get("cases") != count or len(own) != count:
            problems.append(f"{e.get('cases')} cases reported, {len(own)} run, {count} expected")
        if e.get("status") != status:
            problems.append(f"status {e.get('status')}, cases say {status}")
        residual = e.get("max_residual")
        if status == "pass" and (residual is None or mp.mpf(residual) > TOL):
            problems.append(f"max_residual {residual} on passing cases")
        per_id[identity] = problems
    return overall, per_id


def check_catalog_round(outputs, report_text: str, code: int, count: int) -> list:
    """Reasons per operation (one per case in round order)."""
    overall, per_id = _report_problems(report_text, code, count, [r for _, r in outputs])
    reasons = []
    for case, result in outputs:
        why = list(overall) + per_id.get(case.identity_id, [])
        if result.status != "pass":
            why.append(f"case {result.status}: {result.skip_reason}")
        elif result.max_residual > TOL:
            why.append(f"residual {mp.nstr(result.max_residual, 3)}")
        if result.index == 0 and case.identity_id in TWO_SIDED:
            why += _check_two_sided_case(case)
        reasons.append(why)
    return reasons


# --------------------------------------------------------------------------
# self-test
# --------------------------------------------------------------------------


def _perturbed(z):
    return z * (1 + PERTURBATION)


def self_test(workload, outputs, reasons) -> list:
    """Problems with the checks themselves, tried on one operation of round
    one that passed: a value perturbed by 10^-(P-14) relative and, for the
    engine, a pair of roots swapped between Q and Q-hat must each fail."""
    passed = [i for i, why in enumerate(reasons) if not why and i < len(outputs)]
    if not passed:
        return []
    problems = []
    if workload.name == "oracle-points":
        i = max(passed, key=lambda i: abs(outputs[i].value))
        bad = dataclasses.replace(outputs[i], value=_perturbed(outputs[i].value))
        if not check_oracle_point(workload.ops[i], bad):
            problems.append("a perturbed oracle value passed the check")
    elif workload.name == "engine":
        spec, out = workload.ops[passed[0]], outputs[passed[0]]
        coeffs = list(out["polys"]["P"].coeffs)
        k = max(range(len(coeffs)), key=lambda k: abs(coeffs[k]))
        coeffs[k] = _perturbed(coeffs[k])
        bad = dict(out, polys=dict(out["polys"], P=SimpleNamespace(coeffs=coeffs)))
        if not check_engine_spec(spec, bad):
            problems.append("a perturbed coefficient passed the check")
        q, qhat = out["roots"]["Q"].roots, out["roots"]["Qhat"].roots
        swapped = dict(
            out["roots"],
            Q=SimpleNamespace(roots=[qhat[0]] + list(q)[1:]),
            Qhat=SimpleNamespace(roots=[q[0]] + list(qhat)[1:]),
        )
        if not check_engine_spec(spec, dict(out, roots=swapped)):
            problems.append("a swapped root passed the check")
    else:
        cases = [outputs[i][0] for i in passed if outputs[i][1].index == 0]
        case = next((c for c in cases if c.identity_id in TWO_SIDED), None)
        if case is None:
            return []
        expr, num, den = _two_sided_case(case)
        first = expr.terms[0]
        bad = dataclasses.replace(
            expr, terms=(dataclasses.replace(first, coeff=_perturbed(first.coeff)),) + expr.terms[1:]
        )
        if not _check_two_sided(case, bad, num, den):
            problems.append("a perturbed right side passed the check")
    return problems
