"""Hash every draw of the verify samplers, to show that a change keeps them.

    PYTHONPATH=src python tools/draw_digest.py --digits 40 --seeds 1-20 --count 20

For every seed in the range and every identity id, ``sample_params`` draws
``count`` cases.  The params, the x samples and the type name of the kept
right-side error (``NoneType`` when there is none) of each case go into one
SHA-256, hashed exactly as ``test_draws_are_pinned`` hashes its draws, and
into a SHA-256 of that identity's draws alone.  The script prints one line
per identity with its digest, then the number of cases and the total hex
digest.  Run it on two trees with the same arguments (``ipdhyp`` is
imported from ``PYTHONPATH``): equal digests mean equal draws, and the
identity lines name the identities whose draws moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ipdhyp.kernel import set_precision  # noqa: E402
from ipdhyp.verify import IDENTITY_IDS, sample_params  # noqa: E402
from tests.test_verify_cli import _feed  # noqa: E402


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def draw_digest(seeds: range, count: int) -> tuple:
    """(number of cases, SHA-256 hex digest of every draw over all ids,
    {id: SHA-256 hex digest of that id's draws})."""
    total = hashlib.sha256()
    by_id = {identity_id: hashlib.sha256() for identity_id in IDENTITY_IDS}
    cases = 0
    for seed in seeds:
        for identity_id in IDENTITY_IDS:
            for case in sample_params(identity_id, seed, count):
                for digest in (total, by_id[identity_id]):
                    digest.update(identity_id.encode())
                    _feed(digest, case.params)
                    _feed(digest, case.x_samples)
                    digest.update(type(case.rhs_error).__name__.encode())
                cases += 1
    return cases, total.hexdigest(), {i: d.hexdigest() for i, d in by_id.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digits", type=int, default=40)
    parser.add_argument("--seeds", type=_seed_range, default="1-20", help="A-B or A")
    parser.add_argument("--count", type=int, default=20)
    args = parser.parse_args()
    set_precision(args.digits)
    cases, hexdigest, by_id = draw_digest(args.seeds, args.count)
    for identity_id, id_digest in by_id.items():
        print(f"{identity_id:<12} sha256 {id_digest}")
    print(f"{cases} cases  sha256 {hexdigest}")


if __name__ == "__main__":
    main()
