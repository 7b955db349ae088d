"""Compare two ``ipdhyp verify --json`` reports identity by identity.

    python tools/report_diff.py OLD.json NEW.json

For every identity id of either report the script prints the old and new
``max_residual``, their ratio, and the headroom ``log10(tol / residual)``
of each with its change.  The last line says whether the reports are equal
apart from ``wall_time_s``; the exit status is 0 when they are, 1 when not.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp


def _headroom(tol: mp.mpf, residual):
    """log10(tol / residual), or None without a residual; inf at residual 0."""
    if residual is None:
        return None
    return mp.inf if residual == 0 else mp.log10(tol / residual)


def _text(value, digits: int = 4) -> str:
    return "-" if value is None else mp.nstr(value, digits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier report")
    parser.add_argument("new", help="the later report")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    rows = [{item["id"]: item for item in doc["identities"]} for doc in docs]
    ids = list(rows[0]) + [i for i in rows[1] if i not in rows[0]]
    print(f"{'id':<12} {'old residual':>12} {'new residual':>12} {'new/old':>9} "
          f"{'old headroom':>12} {'new headroom':>12} {'change':>8}")
    for identity in ids:
        residuals, headrooms = [], []
        for doc, row in zip(docs, rows):
            text = row.get(identity, {}).get("max_residual")
            residual = None if text is None else mp.mpf(text)
            residuals.append(residual)
            headrooms.append(_headroom(mp.mpf(doc["tolerance"]), residual))
        ratio = change = None
        if None not in residuals and residuals[0] != 0:
            ratio = residuals[1] / residuals[0]
        if None not in headrooms:
            change = headrooms[1] - headrooms[0]
        print(f"{identity:<12} {_text(residuals[0]):>12} {_text(residuals[1]):>12} "
              f"{_text(ratio):>9} {_text(headrooms[0]):>12} {_text(headrooms[1]):>12} "
              f"{_text(change, 3):>8}")
    strip = [{k: v for k, v in doc.items() if k != "wall_time_s"} for doc in docs]
    if strip[0] == strip[1]:
        print("equal apart from wall_time_s")
        return 0
    keys = set(strip[0]) | set(strip[1])
    differing = sorted(k for k in keys if strip[0].get(k) != strip[1].get(k))
    print("differ in: " + ", ".join(differing))
    return 1


if __name__ == "__main__":
    sys.exit(main())
