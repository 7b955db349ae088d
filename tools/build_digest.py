"""Hash every build of the engine, to show that a change keeps them.

    PYTHONPATH=src python tools/build_digest.py --digits 40 --seeds 1-5 --count 2

For every seed in the range and every m of ``SHAPES``, the script draws
``count`` seeded specs (a, b, c, d, e and f from a box) and one more with
b = 0, where the guards raise, and hashes:

* every characteristic-polynomial builder, with the roots, residual and
  sweeps of ``find_roots`` (T and T* for every p of ``P_RANGE``);
* ``genfunc_coeffs`` in both modes;
* every route of ``coeff_C``, ``coeff_D`` and ``coeff_Y`` at every index;
* every variant of each ``apply_*`` transformation (``apply_degenerate_p``
  and ``apply_degenerate_vector`` for every p), as its terms;
* the closed route of ``meijer_norlund_ipd_many`` at the points of
  ``MEIJER_TS``.

A call that raises an ``IpdHypError`` is hashed as its error type; any
other exception stops the script.  Numbers are hashed exactly,
by ``_feed`` of ``tests/test_verify_cli.py`` as the pins hash them.  The
script prints one line per build label (``Q eq5``, ``T``, ``eq29``, ...;
the p of a label is part of its builds, not of the label) with its number
of builds and their digest; a label that builds a polynomial gets four
more lines, the digests of its coefficients alone, of its root values
alone, of its root residuals alone and of its ``RootSet.sweeps`` alone (a
build that raised goes into all four, a ``find_roots`` that raised into the
three root lines), so a change that moves only roots, only residuals or
only sweep counts shows as such.  The sweep counts are hashed on their own
line only, not into the label's digest or the total.  Then come the total
number of hashed items and the digest of all of them.  Run it on two trees
with the same arguments (``ipdhyp`` is imported from ``PYTHONPATH``): equal
digests mean equal builds, and a diff of the two outputs names the labels
that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import mpmath as mp  # noqa: E402

from ipdhyp.charpoly import (  # noqa: E402
    build_L,
    build_P,
    build_Phat,
    build_Q,
    build_Qhat,
    build_T,
    find_roots,
    w_poly,
)
from ipdhyp.coeffs import IpdSpec, coeff_C, coeff_D, coeff_Y  # noqa: E402
from ipdhyp.errors import IpdHypError  # noqa: E402
from ipdhyp.kernel import genfunc_coeffs, set_precision  # noqa: E402
from ipdhyp.transforms import (  # noqa: E402
    apply_degenerate_p,
    apply_degenerate_single,
    apply_degenerate_vector,
    apply_mp1,
    apply_mp2,
    apply_two_free,
    expand_to_gauss,
    meijer_norlund_ipd_many,
)
from tests.test_verify_cli import _feed  # noqa: E402
from tools.draw_digest import _seed_range  # noqa: E402

SHAPES = [(1,), (2,), (3,), (4,), (5,), (6,), (1, 1), (2, 1), (3, 3), (2, 2, 2)]
P_RANGE = range(1, 6)
MEIJER_TS = [mp.mpf("0.07"), mp.mpf("0.4"), mp.mpf("0.93")]


def _draw(rng: random.Random) -> mp.mpc:
    return mp.mpc(rng.uniform(-2, 3), rng.uniform(-1, 1))


def _terms(expr) -> list:
    """The terms of a HypExpression as plain nested lists."""
    return [
        [t.coeff, t.x_power, t.prefactor_exponent, t.arg_map,
         None if t.fun is None else [t.fun.num, t.fun.den]]
        for t in expr.terms
    ]


def _builds(spec: IpdSpec, d, e, bvec) -> list:
    """(label, thunk) of every build of one spec; each thunk returns the
    value to hash."""
    a, b, c, f, m = spec.a, spec.b, spec.c, spec.f, spec.m
    mt = m.total
    bare = IpdSpec(b=b, f=f, m=m, a=a)

    def poly(build):
        def run():
            p = build()
            try:
                roots = find_roots(p)
            except IpdHypError as exc:
                name = type(exc).__name__
                return {"coeffs": p.coeffs, "roots": name, "sweeps": name}
            return {"coeffs": p.coeffs, "roots": [list(roots.roots), roots.residual],
                    "sweeps": roots.sweeps}
        return run

    out = [
        ("Q eq5", poly(lambda: build_Q(b, c, f, m))),
        ("Q eq7", poly(lambda: build_Q(b, c, f, m, route="eq7"))),
        ("P", poly(lambda: build_P(b, c, f, m))),
        ("Qhat", poly(lambda: build_Qhat(a, b, c, f, m))),
        ("Phat", poly(lambda: build_Phat(a, b, c, f, m))),
        ("L", poly(lambda: build_L(a, d, e, b, f, m, variant="L"))),
        ("Lhat", poly(lambda: build_L(a, d, e, b, f, m, variant="Lhat"))),
        ("W", poly(lambda: w_poly(b, f, m))),
        ("sigma", lambda: genfunc_coeffs(f, m)),
        ("alpha", lambda: genfunc_coeffs(f, m, shift=b, sign=-1)),
    ]
    for route in ("hyp", "stirling"):
        out.append((f"C {route}", lambda r=route: [coeff_C(k, f, m, r) for k in range(mt + 1)]))
        out.append((f"D {route}", lambda r=route: [coeff_D(k, f, m, b, r) for k in range(mt + 1)]))
    for route in ("hyp", "stirling", "norlund"):
        out.append((f"Y {route}", lambda r=route: [coeff_Y(k, b, f, m, r) for k in range(mt)]))
    for route in ("paperQ", "newP"):
        out.append((f"mp1 {route}", lambda r=route: _terms(apply_mp1(spec, r))))
    for route in ("paperQhat", "newPhat"):
        out.append((f"mp2 {route}", lambda r=route: _terms(apply_mp2(spec, r))))
    out.append(("gauss", lambda: _terms(expand_to_gauss(spec))))
    out.append(("meijer closed", lambda: meijer_norlund_ipd_many(MEIJER_TS, b, c, f, m)))
    for variant in ("eq19", "eq20", "eq26"):
        out.append((variant, lambda v=variant: _terms(apply_degenerate_single(bare, v))))
    for variant in ("first", "second"):
        out.append((variant, lambda v=variant: _terms(apply_two_free(a, d, e, b, f, m, v))))
    out.append(("eq27 lengths", lambda: _terms(apply_degenerate_vector(bvec, (1,), a, f, m))))
    for p in P_RANGE:
        out.append((f"T {p}", poly(lambda p=p: build_T(b, p, f, m, variant="T"))))
        out.append((f"Tstar {p}", poly(lambda p=p: build_T(b, p, f, m, variant="Tstar", a=a))))
        for variant in ("eq29", "eq31"):
            out.append((f"{variant} {p}",
                        lambda p=p, v=variant: _terms(apply_degenerate_p(bare, p, v))))
        for variant in ("eq27", "eq28"):
            out.append((f"{variant} {p}", lambda p=p, v=variant: _terms(
                apply_degenerate_vector(bvec, (p, 1), a, f, m, v))))
    return out


def _group(label: str) -> str:
    """The label without its trailing p: "T 3" -> "T", "Q eq5" stays."""
    head, _, tail = label.rpartition(" ")
    return head if tail.isdigit() else label


def _hashed(value):
    """What the label and total digests hash of a build: all of it but a
    polynomial's sweep counts."""
    if isinstance(value, dict):
        return {key: value[key] for key in ("coeffs", "roots")}
    return value


class _LabelDigest:
    """The digests of one label: of all its builds (``_hashed``), and of a
    polynomial's coefficients, root values, root residuals and sweep counts
    apart (a build that raised goes to all four, a ``find_roots`` that
    raised to the last three)."""

    def __init__(self):
        self.builds = 0
        self.sinks = [hashlib.sha256() for _ in range(5)]
        self.poly = False

    def add(self, label: str, value) -> None:
        self.builds += 1
        self.poly = self.poly or isinstance(value, dict)
        parts = (value,) * 5
        if isinstance(value, dict):
            found = value["roots"]
            roots, residual = found if isinstance(found, list) else (found, found)
            parts = (_hashed(value), value["coeffs"], roots, residual, value["sweeps"])
        for sink, part in zip(self.sinks, parts):
            sink.update(label.encode())
            _feed(sink, part)

    def digests(self) -> tuple:
        whole, *split = (sink.hexdigest() for sink in self.sinks)
        return (self.builds, whole, *(split if self.poly else [None] * 4))


def build_digest(seeds: range, count: int) -> tuple:
    """(number of hashed builds, SHA-256 hex digest) over all seeds, and
    {label: (builds, digest, coefficient digest, root digest, residual
    digest, sweeps digest)} per label, in the order the labels appear; the
    last four are None for a label that builds no polynomial."""
    digest = hashlib.sha256()
    items = 0
    groups = {}
    for seed in seeds:
        rng = random.Random(seed)
        for shape in SHAPES:
            for i in range(count + 1):
                a, b, c, d, e = (_draw(rng) for _ in range(5))
                if i == count:
                    b = mp.mpc(0)
                f = [_draw(rng) for _ in shape]
                bvec = [_draw(rng), _draw(rng)]
                spec = IpdSpec(b=b, f=f, m=shape, a=a, c=c)
                for label, run in _builds(spec, d, e, bvec):
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            value = run()
                    except IpdHypError as exc:
                        value = type(exc).__name__
                    group = groups.setdefault(_group(label), _LabelDigest())
                    group.add(label, value)
                    digest.update(label.encode())
                    _feed(digest, _hashed(value))
                    items += 1
    per_label = {name: group.digests() for name, group in groups.items()}
    return items, digest.hexdigest(), per_label


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, default=40)
    parser.add_argument("--seeds", type=_seed_range, default="1-5", help="A-B or A")
    parser.add_argument("--count", type=int, default=2)
    args = parser.parse_args()
    set_precision(args.digits)
    items, hexdigest, per_label = build_digest(args.seeds, args.count)
    for name, (n, label_digest, *split) in per_label.items():
        print(f"{name:<14} {n:>5} builds  sha256 {label_digest}")
        if split[0] is not None:
            for part, digest in zip(("coefficients", "roots", "residuals", "sweeps"), split):
                print(f"{'':<14} {part:>12}  sha256 {digest}")
    print(f"{items} builds  sha256 {hexdigest}")


if __name__ == "__main__":
    main()
