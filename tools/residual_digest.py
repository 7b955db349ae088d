"""Hash every residual of the verify checks, to show which identities a change moves.

    PYTHONPATH=src python tools/residual_digest.py --digits 40 --seeds 1 --count 2

For every seed in the range and every identity id, ``sample_params`` draws
``count`` cases and the identity's check runs on each.  The exact mantissa
and exponent of every residual go into one SHA-256, hashed exactly as
``test_residuals_are_pinned`` hashes them (so the defaults print that pin
as the total), and into a SHA-256 of that identity's residuals alone.  The
script prints one line per identity with its digest, then the number of
cases and the total hex digest.  Run it on two trees with the same
arguments (``ipdhyp`` is imported from ``PYTHONPATH``): the identity lines
name the identities whose residuals moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ipdhyp.kernel import set_precision  # noqa: E402
from ipdhyp.verify import IDENTITIES, IDENTITY_IDS, sample_params  # noqa: E402
from tools.draw_digest import _seed_range  # noqa: E402


def residual_digest(seeds: range, count: int) -> tuple:
    """(number of cases, SHA-256 hex digest of every residual over all ids,
    {id: SHA-256 hex digest of that id's residuals})."""
    total = hashlib.sha256()
    by_id = {identity_id: hashlib.sha256() for identity_id in IDENTITY_IDS}
    cases = 0
    for seed in seeds:
        for identity_id in IDENTITY_IDS:
            for case in sample_params(identity_id, seed, count):
                residuals = IDENTITIES[identity_id].check(case)
                line = repr((identity_id, [r.man_exp for r in residuals])).encode()
                total.update(line)
                by_id[identity_id].update(line)
                cases += 1
    return cases, total.hexdigest(), {i: d.hexdigest() for i, d in by_id.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, default=40)
    parser.add_argument("--seeds", type=_seed_range, default="1", help="A-B or A")
    parser.add_argument("--count", type=int, default=2)
    args = parser.parse_args()
    set_precision(args.digits)
    cases, hexdigest, by_id = residual_digest(args.seeds, args.count)
    for identity_id, id_digest in by_id.items():
        print(f"{identity_id:<12} sha256 {id_digest}")
    print(f"{cases} cases  sha256 {hexdigest}")


if __name__ == "__main__":
    main()
