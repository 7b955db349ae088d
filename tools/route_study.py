"""Measure every coefficient route and characteristic-polynomial builder
against a high-precision build of the same inputs.

    PYTHONPATH=src python tools/route_study.py --digits 40 --ref-digits 120 --specs 6

For every m_total of ``SHAPES`` the script draws ``--specs`` seeded specs
(a, b, c, d, e and f from the box Re in [-2, 3], Im in [-1, 1], as exact
doubles), cycling through the shapes of that total, and builds each route
twice from the same inputs: at ``--digits`` and at ``--ref-digits``.  The
routes are:

* every route of ``coeff_C``, ``coeff_D`` and ``coeff_Y``, as the vector
  of all indices, made by the per-index calls (bit for bit the builders'
  vectors, which the builders read in one call);
* the builders Q eq5, Q eq7, P/(f)_m, Q-hat, P-hat, L, L-hat, and T and T*
  at p = ``P``, as their coefficient vectors;
* the same builder bodies run on mpc at ``--digits`` instead of in fixed
  point ("on mpc" rows), the reference run the tests keep, against the
  same kind of reference: the body on mpc at ``--ref-digits``.

It prints two tables, one row per route and one column per m_total: the
worst normwise relative error max_k |v_k - ref_k| / max_k |ref_k| over the
specs, and the median over the specs of the fastest of ``REPEATS`` builds
at ``--digits``, in ms.  A
build that raises an ``IpdHypError`` at either precision is left out of
both and counted in the last column.  A third table has one row per
builder (P as built, not divided by (f)_m) and gives ``find_roots`` on its
polynomial at ``--digits``: the worst ``RootSet.residual`` over the specs
as a multiple of the target 10^-(digits-10), and in parentheses the median
over the specs of the fastest of ``REPEATS`` calls, in ms; a call that
raises is counted in the last column.  ``ipdhyp`` is imported from
``PYTHONPATH``, so the same script measures two trees.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

import mpmath as mp

from ipdhyp import charpoly
from ipdhyp.charpoly import (
    build_L,
    build_P,
    build_Phat,
    build_Q,
    build_Qhat,
    build_T,
    find_roots,
)
from ipdhyp.coeffs import coeff_C, coeff_D, coeff_Y
from ipdhyp.errors import IpdHypError
from ipdhyp.kernel import IntVector, pochhammer_vec, set_precision

SHAPES = {
    3: [(3,), (2, 1), (1, 1, 1)],
    6: [(6,), (3, 3), (2, 2, 2)],
    9: [(9,), (5, 4), (3, 3, 3)],
    12: [(12,), (6, 6), (4, 4, 4)],
}
#: The p of T and T*.
P = 3
#: Builds timed per route and spec; the fastest one counts.
REPEATS = 3


def _draw(rng: random.Random) -> mp.mpc:
    return mp.mpc(rng.uniform(-2, 3), rng.uniform(-1, 1))


def _builders(a, b, c, d, e, f, m) -> list:
    """(name, thunk) of every builder; each thunk returns a CPoly."""
    return [
        ("Q eq5", lambda: build_Q(b, c, f, m)),
        ("Q eq7", lambda: build_Q(b, c, f, m, route="eq7")),
        ("P", lambda: build_P(b, c, f, m)),
        ("Q-hat", lambda: build_Qhat(a, b, c, f, m)),
        ("P-hat", lambda: build_Phat(a, b, c, f, m)),
        ("L", lambda: build_L(a, d, e, b, f, m, variant="L")),
        ("L-hat", lambda: build_L(a, d, e, b, f, m, variant="Lhat")),
        ("T", lambda: build_T(b, P, f, m)),
        ("T*", lambda: build_T(b, P, f, m, variant="Tstar", a=a)),
    ]


def _on_mpc(a, b, c, d, e, f, m) -> list:
    """(name, thunk) of every builder's body run on mpc; each thunk returns
    a coefficient list, P's divided by (f)_m."""
    m = IntVector(m)
    return [
        ("Q eq5 on mpc", lambda: charpoly._q_eq5(b, c, f, m)),
        ("Q eq7 on mpc", lambda: charpoly._q_eq7(b, c, f, charpoly._node_shift(b, c, m.total), m)),
        ("P/(f)_m on mpc", lambda: [x / pochhammer_vec(f, m) for x in charpoly._p(b, c, f, m)]),
        ("Q-hat on mpc", lambda: charpoly._qhat(a, b, c, f, m)),
        ("P-hat on mpc", lambda: charpoly._phat(a, b, c, f, m)),
        ("L on mpc", lambda: charpoly._l(a, d, e, b, f, m, "L")),
        ("L-hat on mpc", lambda: charpoly._l(a, d, e, b, f, m, "Lhat")),
        ("T on mpc", lambda: charpoly._t(b, f, m, P)),
        ("T* on mpc", lambda: charpoly._tstar(b, f, a, m, P)),
    ]


def _routes(a, b, c, d, e, f, m) -> list:
    """(name, thunk) of every route; each thunk returns a coefficient list."""
    mt = sum(m)
    ks, ls = range(mt + 1), range(mt)
    out = []
    for route in ("hyp", "stirling"):
        out.append((f"C {route}", lambda r=route: [coeff_C(k, f, m, r) for k in ks]))
    for route in ("hyp", "stirling"):
        out.append((f"D {route}", lambda r=route: [coeff_D(k, f, m, b, r) for k in ks]))
    for route in ("hyp", "stirling", "norlund"):
        out.append((f"Y {route}", lambda r=route: [coeff_Y(l, b, f, m, r) for l in ls]))
    for name, build in _builders(a, b, c, d, e, f, m):
        if name == "P":
            out.append(("P/(f)_m", lambda build=build: [
                x / pochhammer_vec(f, m) for x in build().coeffs
            ]))
        else:
            out.append((name, lambda build=build: build().coeffs))
    return out + _on_mpc(a, b, c, d, e, f, m)


def _error(got: list, ref: list) -> mp.mpf:
    """Normwise relative error; a list trimmed shorter is padded with zeros."""
    n = max(len(got), len(ref))
    got, ref = got + [0] * (n - len(got)), ref + [0] * (n - len(ref))
    top = max(abs(r) for r in ref)
    return max(abs(g - r) for g, r in zip(got, ref)) / (top if top else 1)


def _fastest(run) -> tuple:
    """(result, seconds) of the fastest of REPEATS calls of ``run``."""
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        got = run()
        spent = time.perf_counter() - start
        best = spent if best is None else min(best, spent)
    return got, best


def _cells(cells: dict, total: int, table: dict) -> None:
    """Fold {name: (values, times, left out)} into table[name][total]."""
    for name, (values, times, left_out) in cells.items():
        worst = max(values) if values else None
        ms = 1e3 * statistics.median(times) if times else None
        table.setdefault(name, {})[total] = (worst, ms, left_out[0])


def study(digits: int, ref_digits: int, specs: int, seed: int) -> tuple:
    """{route: {m_total: (worst error, median ms, builds left out)}}, and
    {builder: {m_total: (worst residual / target, median ms, left out)}}."""
    set_precision(digits)
    target = mp.mpf(10) ** (10 - digits)
    table, roots_table = {}, {}
    for total, shapes in SHAPES.items():
        rng = random.Random(f"route-study/{seed}/{total}")
        cells, root_cells = {}, {}
        for i in range(specs):
            shape = shapes[i % len(shapes)]
            a, b, c, d, e = (_draw(rng) for _ in range(5))
            f = [_draw(rng) for _ in shape]
            for name, build in _routes(a, b, c, d, e, f, shape):
                errors, times, left_out = cells.setdefault(name, ([], [], [0]))
                try:
                    got, spent = _fastest(build)
                    times.append(spent)
                    with mp.workdps(ref_digits):
                        ref = build()
                        errors.append(_error(got, ref))
                except IpdHypError:
                    left_out[0] += 1
            for name, build in _builders(a, b, c, d, e, f, shape):
                residuals, times, left_out = root_cells.setdefault(name, ([], [], [0]))
                try:
                    poly = build()
                    roots, spent = _fastest(lambda: find_roots(poly))
                except IpdHypError:
                    left_out[0] += 1
                    continue
                times.append(spent)
                residuals.append(roots.residual / target)
        _cells(cells, total, table)
        _cells(root_cells, total, roots_table)
    return table, roots_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, default=40)
    parser.add_argument("--ref-digits", type=int, default=120)
    parser.add_argument("--specs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    table, roots_table = study(args.digits, args.ref_digits, args.specs, args.seed)
    totals = list(SHAPES)
    print(f"worst normwise relative error at {args.digits} digits "
          f"against {args.ref_digits} digits, {args.specs} specs per m_total")
    print("| route | " + " | ".join(f"m = {t}" for t in totals) + " | left out |")
    print("|---" * (len(totals) + 2) + "|")
    for name, row in table.items():
        cells = [mp.nstr(row[t][0], 2) if row[t][0] is not None else "-" for t in totals]
        print(f"| {name} | " + " | ".join(cells) + f" | {sum(row[t][2] for t in totals)} |")
    print()
    print(f"median build time in ms at {args.digits} digits (fastest of {REPEATS})")
    print("| route | " + " | ".join(f"m = {t}" for t in totals) + " |")
    print("|---" * (len(totals) + 1) + "|")
    for name, row in table.items():
        cells = [f"{row[t][1]:.2f}" if row[t][1] is not None else "-" for t in totals]
        print(f"| {name} | " + " | ".join(cells) + " |")
    print()
    print(f"worst find_roots residual over its target 1e-{args.digits - 10}, and the median "
          f"find_roots time in ms (fastest of {REPEATS}), at {args.digits} digits")
    print("| builder | " + " | ".join(f"m = {t}" for t in totals) + " | left out |")
    print("|---" * (len(totals) + 2) + "|")
    for name, row in roots_table.items():
        cells = [
            f"{mp.nstr(row[t][0], 2)} ({row[t][1]:.2f})" if row[t][0] is not None else "-"
            for t in totals
        ]
        print(f"| {name} | " + " | ".join(cells) + f" | {sum(row[t][2] for t in totals)} |")


if __name__ == "__main__":
    main()
