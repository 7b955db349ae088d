"""Run alternating parent/change pairs of the benchmark and write BENCH_<pr>.json.

    python tools/bench_pairs.py --parent ../parent --change . --out BENCH_N.json \\
        --change-text "what the change does"

``--parent`` and ``--change`` are two full checkouts, the parent a git
clone (its HEAD is recorded as ``parent_commit``).  Every run is one
process, ``python3 bench/run.py --workload W --seed S --seconds T --trace
0`` with T the ``run_seconds`` of ``BENCHMARK.json``, started in the root
of its checkout, and the runs go one after another:

* pairs: for every seed of SEEDS (seed order outer, workload inner) one run
  of each side; the parent runs first on odd seeds, the change on even ones;
* held out: one more pair per workload on HELD_OUT, parent first;
* traced: one run per side of TRACED with ``--trace 1`` on the held-out
  seed, parent first.

The file follows the schema of the earlier ``BENCH_*.json``: per workload
and end-to-end metric (units, direction and bounds from the change's
``BENCHMARK.json``) each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the pairs the change won and tied,
the relative change of the median and the parent's quartile distance; then
every run, the held-out pairs and the traced per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
#: Seeds of the pairs, the seed held out from writing the change, and the
#: workload of the traced runs.
SEEDS = range(41, 51)
HELD_OUT = 57
TRACED = "oracle-points"


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout ``root``; its result line as a dict."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def flat(result: dict) -> dict:
    """A result line as one run record: correct, attempted, failed, metric values."""
    record = {key: result[key] for key in ("correct", "attempted", "failed")}
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    return record


def pair(roots: dict, workload: str, seed: int, first: str, seconds: float) -> dict:
    order = SIDES if first == "parent" else SIDES[::-1]
    out = {"seed": seed, "first": first}
    for side in order:
        out[side] = flat(run_once(roots[side], workload, seed, seconds, 0))
        print(f"{workload} seed {seed} {side}: {json.dumps(out[side])}", file=sys.stderr,
              flush=True)
    return {key: out[key] for key in ("seed", "first", *SIDES)}


def summary(runs: list, metric: dict) -> dict:
    """Medians, quartiles and wins of one metric over the pairs ``runs``."""
    name = metric["name"]
    values = {side: [run[side][name] for run in runs] for side in SIDES}
    out = {key: metric[key] for key in ("unit", "better", "bound")}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(values[side], n=4)
        out[side] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    sign = 1 if metric["better"] == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    parent_median = statistics.median(values["parent"])
    out["change_wins"] = sum(d > 0 for d in diffs)
    out["ties"] = sum(d == 0 for d in diffs)
    out["pairs"] = len(runs)
    out["median_change"] = round(
        (statistics.median(values["change"]) - parent_median) / parent_median, 4
    )
    out["parent_quartile_distance"] = round(out["parent"]["q3"] - out["parent"]["q1"], 6)
    return out


def machine() -> dict:
    import mpmath

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout (git)")
    parser.add_argument("--change", required=True, type=Path, help="change checkout")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<pr>.json to write")
    parser.add_argument("--change-text", required=True, help="one line on what changed")
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent_commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=roots["parent"], capture_output=True, text=True,
        check=True,
    ).stdout.strip()

    runs = {name: [] for name in names}
    for seed in SEEDS:
        first = "parent" if seed % 2 else "change"
        for name in names:
            runs[name].append(pair(roots, name, seed, first, seconds))
    held_out = {name: pair(roots, name, HELD_OUT, "parent", seconds) for name in names}
    traced = {"workload": TRACED}
    for side in SIDES:
        result = run_once(roots[side], TRACED, HELD_OUT, seconds, 1)
        traced[side] = {
            "seed": HELD_OUT,
            "correct": result["correct"],
            "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        }

    report = {
        "change": args.change_text,
        "parent_commit": parent_commit,
        "command": f"python3 bench/run.py --workload <name> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": (
            f"{len(SEEDS)} pairs per workload, seeds {SEEDS.start}-{SEEDS.stop - 1}, one "
            "single-threaded process per run, run one after another in the checkouts given "
            "as --parent and --change; the parent runs first on odd seeds and the change "
            "first on even seeds; seed order outer, workload inner. held_out: one more pair "
            f"per workload on seed {HELD_OUT}, which was not used while the change was "
            f"written. traced: one {TRACED} run per side with --trace 1 (one untraced round, "
            f"then one traced round) on seed {HELD_OUT}, parent first"
        ),
        "machine": machine(),
        "workloads": {
            name: {
                "failed": {s: sum(r[s]["failed"] for r in runs[name]) for s in SIDES},
                "attempted": {s: sum(r[s]["attempted"] for r in runs[name]) for s in SIDES},
                "metrics": {m["name"]: summary(runs[name], m) for m in bench["end_to_end"]},
                "runs": runs[name],
            }
            for name in names
        },
        "held_out": held_out,
        "traced": traced,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
