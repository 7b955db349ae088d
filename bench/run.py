"""Benchmark command for ipdhyp.

Run from the root of a checkout:

    python3 bench/run.py --workload {catalog,oracle-points,engine} \
        --seed N --seconds S --trace {0,1}

The workload runs in this one process, single-threaded, on the program in
``src/``.  A run measures whole rounds of the same operations: as many as
fit in ``--seconds``, and at least one.  Round one's outputs are checked
against references computed apart from the program (``reference.py``);
every later round must reproduce round one exactly.  A failed or skipped
operation, or one whose check fails, counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
the median, over a few fresh processes that stop once their inputs are
ready, of the time from process start to the first timed operation.  The
machine's speed drifts by a fifth or more within minutes, so a fixed
calibration loop is timed between the operations and every end-to-end time
is scaled to a fixed reference speed of that loop; the times as measured
go to standard error (see README.md).  With ``--trace 1`` one untraced
round is followed by one traced round (see ``tracing.py``) and the run
reports the per-layer metrics, as measured; the spans are written to
``bench/out``.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("catalog", "oracle-points", "engine")
SETUP_PROBES = 7

#: Mean time of one calibration piece at the reference speed.  Timings are
#: reported as they would read at that speed.  On the machine of the
#: figures in README.md the mean piece ranged from 470 to 750 us.
REFERENCE_PIECE_S = 650e-6

#: Calibration pieces around an operation that gauge the speed it ran at.
LOCAL_PIECES = 51


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's src/ first on the path; refuse to run without it."""
    init = SRC / "ipdhyp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} is missing; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import ipdhyp

    if Path(ipdhyp.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported ipdhyp from {ipdhyp.__file__}, not from {SRC}")


def calibration_piece() -> float:
    """Seconds taken by a fixed mpmath loop of about half a millisecond.

    The loop does the kind of work the program does (40-digit mpmath
    arithmetic in pure Python) and none of the program's code, so its time
    follows the machine's speed and nothing else.
    """
    start = time.perf_counter()
    with mp.workdps(40):
        total = mp.mpf(0)
        for k in range(1, 100):
            total += mp.mpf(1) / k**2
    return time.perf_counter() - start


class Rounds:
    """Runs rounds of one workload; keeps round one, compares the rest to it.

    After every operation it times one calibration piece.  That time, and
    the rest of the bookkeeping between operations, is taken out of the
    round's time.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first = []  # round-one outputs, in operation order
        self.first_errors = []  # round-one error strings, None where it ran
        self.later = []  # per later round: per operation, output equal to round one
        self.round_s = []  # per round: wall time less the time between operations
        self.samples = []  # (operation index, seconds) in the order they ran
        self.pieces = []  # calibration piece seconds, one after each sample

    def run(self) -> None:
        fingerprint = self.workload.fingerprint
        first_round = not self.round_s
        same = []
        between = [0.0]

        def sink(index, latency, output, error):
            entered = time.perf_counter()
            self.samples.append((index, latency))
            if first_round:
                self.first.append(output)
                self.first_errors.append(error)
            else:
                same.append(
                    error is None
                    and index < len(self.first)
                    and self.first_errors[index] is None
                    and fingerprint(output) == fingerprint(self.first[index])
                )
            self.pieces.append(calibration_piece())
            between[0] += time.perf_counter() - entered

        start = time.perf_counter()
        self.workload.run_round(sink)
        self.round_s.append(time.perf_counter() - start - between[0])
        if not first_round:
            self.later.append(same)

    def run_for(self, seconds: float) -> None:
        """Whole rounds while the next one is expected to end within ``seconds``."""
        self.run()
        while sum(self.round_s) + statistics.mean(self.round_s) <= seconds:
            self.run()


def first_round_reasons(workload, rounds: Rounds, reference) -> list:
    """Failure reasons per operation of round one."""
    n = workload.ops_per_round
    if workload.name == "catalog":
        text, code = workload.reports[0]
        reasons = reference.check_catalog_round(rounds.first, text, code, workload.COUNT)
    else:
        check = (
            reference.check_oracle_point
            if workload.name == "oracle-points"
            else reference.check_engine_spec
        )
        reasons = [
            [error] if error else check(op, output)
            for op, output, error in zip(workload.ops, rounds.first, rounds.first_errors)
        ]
    return reasons + [["not run"]] * (n - len(reasons))


def count_failed(workload, rounds: Rounds, reasons: list) -> int:
    failed_first = [bool(r) for r in reasons]
    failed = sum(failed_first)
    for later_round, same in enumerate(rounds.later, start=1):
        whole_round = workload.round_matches_first(later_round)
        for index, failed_before in enumerate(failed_first):
            ok = whole_round and index < len(same) and same[index] and not failed_before
            failed += not ok
    return failed


def setup_seconds(args) -> float:
    """Median time from process start until a fresh process has its inputs."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        samples.append(elapsed)
    return statistics.median(samples)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all the
    order statistics, with Beta(p(n+1), (1-p)(n+1)) weights.  Near the
    quantile it averages a dozen operations instead of interpolating
    between two, so one operation's noise moves it less."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    with mp.workdps(20):
        cdf = [mp.betainc(a, b, 0, mp.mpf(i) / n, regularized=True) for i in range(n + 1)]
        return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def local_speeds(pieces: list) -> list:
    """Per piece: REFERENCE_PIECE_S over the mean of the LOCAL_PIECES
    pieces centred on it (fewer at the ends of the run)."""
    half = LOCAL_PIECES // 2
    prefix = [0.0]
    for piece in pieces:
        prefix.append(prefix[-1] + piece)
    speeds = []
    for j in range(len(pieces)):
        lo, hi = max(0, j - half), min(len(pieces), j + half + 1)
        speeds.append(REFERENCE_PIECE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return speeds


def end_to_end_metrics(rounds: Rounds, setup_s: float, peak_rss_kb: int) -> tuple:
    """The end-to-end metrics at the reference speed, and as measured.

    Medians over the rounds: run_s is the median round, and an operation's
    latency the median of its repeats.  Times are scaled by
    REFERENCE_PIECE_S over the mean calibration piece: an operation's time
    adds up the machine's speed over its whole length, and so does a mean
    over pieces, where a median would follow the typical piece and miss the
    bursts.  run_s, ops_per_s and setup_s take the mean over the whole run;
    the set-up probes run right after the rounds, and pieces timed on their
    own, away from the workload, run faster than pieces between operations
    and would not compare.  Each latency takes the mean of the pieces
    around it, so that the machine's speed in one stretch of a round, such
    as the catalog's cheap identities near its end, does not shift those
    operations against the rest.
    """
    by_op, raw_by_op = {}, {}
    for (index, latency), speed in zip(rounds.samples, local_speeds(rounds.pieces)):
        by_op.setdefault(index, []).append(latency * speed)
        raw_by_op.setdefault(index, []).append(latency)
    lat = [statistics.median(v) for v in by_op.values()]
    raw_lat = [statistics.median(v) for v in raw_by_op.values()]
    run_s = statistics.median(rounds.round_s)
    ops_per_s = len(rounds.samples) / sum(rounds.round_s)
    peak_rss = (peak_rss_kb / 1024, "MB")
    speed = REFERENCE_PIECE_S / statistics.mean(rounds.pieces)
    scaled = {
        "setup_s": (setup_s * speed, "s"),
        "run_s": (run_s * speed, "s"),
        "ops_per_s": (ops_per_s / speed, "1/s"),
        "op_p50_ms": (1e3 * quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(lat, 0.9), "ms"),
        "peak_rss_mb": peak_rss,
    }
    raw = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * quantile(raw_lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(raw_lat, 0.9), "ms"),
        "peak_rss_mb": peak_rss,
    }
    return scaled, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    rounds = Rounds(workload)
    tracer = None
    if args.trace:
        import tracing

        rounds.run()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds.run()
        finally:
            tracer.uninstall()
    else:
        rounds.run_for(args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import reference

    reasons = first_round_reasons(workload, rounds, reference)
    failed = count_failed(workload, rounds, reasons)
    for index, why in enumerate(reasons):
        if why:
            print(f"op {index} failed: {'; '.join(why)}", file=sys.stderr)
    problems = reference.self_test(workload, rounds.first, reasons)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = tracer.metrics(rounds.round_s[1], rounds.round_s[0])
        tracer.write(OUT / f"{stem}.spans.jsonl")
    else:
        metrics, raw = end_to_end_metrics(rounds, setup_seconds(args), peak_rss_kb)
        wall = {name: value for name, (value, _) in raw.items()}
        print(f"as measured, before scaling to the reference speed: {json.dumps(wall)}",
              file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": workload.ops_per_round * len(rounds.round_s),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
