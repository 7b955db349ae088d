"""Hash every series-oracle result of a verify run, to show that a change keeps them.

    PYTHONPATH=src python tools/oracle_digest.py --digits 40 --seeds 1 --count 20

For every seed in the range and every identity id, ``run_suite`` verifies
``count`` cases of that identity, as ``ipdhyp verify`` does, while every
result of the oracle's summations is recorded: each outcome of
``hypeval._sum_series`` (the ``EvalResult`` and the last term summed, or
None for a series that missed its tolerance within TERM_CAP terms) and
each ``EvalResult`` of the x = 1 tail ``hypeval._sum_at_unit``.  The exact
mantissa and exponent of ``value``, ``terms_used`` and ``tail_bound`` go
into one SHA-256 and into a SHA-256 of that identity's results alone.  The
script prints one line per identity with its number of results and its
digest, then the totals.  Run it on two trees with the same arguments
(``ipdhyp`` is imported from ``PYTHONPATH``): equal digests mean that the
oracle returned the same bits, and the identity lines name the identities
whose oracle results moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ipdhyp import hypeval  # noqa: E402
from ipdhyp.kernel import set_precision  # noqa: E402
from ipdhyp.verify import IDENTITY_IDS, run_suite  # noqa: E402
from tools.draw_digest import _seed_range  # noqa: E402


def _bits(result) -> tuple:
    """The exact bits of an EvalResult: value parts, terms_used, tail_bound."""
    value = result.value
    return (value.real._mpf_, value.imag._mpf_, result.terms_used, result.tail_bound._mpf_)


def oracle_digest(seeds: range, count: int) -> tuple:
    """(number of results, SHA-256 hex digest of every oracle result over all
    ids, {id: (number of results, SHA-256 hex digest of that id's)})."""
    total = hashlib.sha256()
    by_id = {identity_id: [0, hashlib.sha256()] for identity_id in IDENTITY_IDS}
    current = by_id[IDENTITY_IDS[0]]

    def record(entry) -> None:
        line = repr(entry).encode()
        total.update(line)
        current[1].update(line)
        current[0] += 1

    sum_series, sum_at_unit = hypeval._sum_series, hypeval._sum_at_unit

    def recorded_series(*args, **kwargs):
        outcomes = sum_series(*args, **kwargs)
        for outcome in outcomes:
            if outcome is None:
                record(None)
            else:
                result, term = outcome
                record((_bits(result), term.real._mpf_, term.imag._mpf_))
        return outcomes

    def recorded_unit(*args, **kwargs):
        result = sum_at_unit(*args, **kwargs)
        record(("unit", _bits(result)))
        return result

    hypeval._sum_series, hypeval._sum_at_unit = recorded_series, recorded_unit
    try:
        for seed in seeds:
            for identity_id in IDENTITY_IDS:
                current = by_id[identity_id]
                run_suite([identity_id], seed=seed, count=count)
    finally:
        hypeval._sum_series, hypeval._sum_at_unit = sum_series, sum_at_unit
    results = sum(n for n, _ in by_id.values())
    return results, total.hexdigest(), {i: (n, d.hexdigest()) for i, (n, d) in by_id.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, default=40)
    parser.add_argument("--seeds", type=_seed_range, default="1", help="A-B or A")
    parser.add_argument("--count", type=int, default=20)
    args = parser.parse_args()
    set_precision(args.digits)
    results, hexdigest, by_id = oracle_digest(args.seeds, args.count)
    for identity_id, (n, id_digest) in by_id.items():
        print(f"{identity_id:<12} {n:>6} results  sha256 {id_digest}")
    print(f"{results} results  sha256 {hexdigest}")


if __name__ == "__main__":
    main()
