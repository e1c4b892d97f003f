#!/usr/bin/env python3
"""Alternating pairs of perfbench runs, a parent checkout against this one.

    python3 tools/bench_pairs.py --parent ../parent --workload single_optimizer_64 \\
        --seeds 30-39 --seconds 55 --out BENCH_12.json

Pair k runs `perfbench/run.py --trace 0` once in each checkout at the k-th
seed, the parent first in even pairs and this checkout first in odd ones, so
a drift of the machine's speed falls on both sides alike.  Every run's last
line is appended to --out (a JSON list, made if missing) with its workload,
seed, pair and side, and with its checkout's commit (git rev-parse HEAD),
whether a tracked file there differed from it (dirty) and, if one did, the
sha256 of `git diff HEAD --binary` (diff_sha256), so each record says which
code it measured, committed or not.  Then, per end-to-end metric, it prints the parent's
median and quartiles, this checkout's median, the pairs this checkout won
and tied, whether the gap between the medians exceeds the parent's
interquartile range, and a verdict against the metric's bound and direction
in BENCHMARK.json (see verdict).  A last line gives each side's attempted and
failed operations, summed over the pairs, and flags a change that fails a
larger share of its operations than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def seeds(text: str) -> list:
    """The seeds of --seeds, N or N-M, in order; argparse rejects a range
    with none."""
    first, _, last = text.partition("-")
    out = list(range(int(first), int(last or first) + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"seed range {text!r} holds no seed")
    return out


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def revision(checkout: str) -> dict:
    """The commit checked out in checkout, whether a tracked file differs
    from it, and if one does the sha256 of that difference: two different
    uncommitted trees on one commit read apart."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, check=True,
                              capture_output=True).stdout
    diff = git("diff", "HEAD", "--binary")
    rev = {"commit": git("rev-parse", "HEAD").decode().strip(), "dirty": bool(diff)}
    if diff:
        rev["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    return rev


def load_bounds() -> dict:
    """(bound, better) of each end-to-end metric of BENCHMARK.json, by name."""
    with open(BENCHMARK) as fh:
        return {m["name"]: (m["bound"], m["better"]) for m in json.load(fh)["end_to_end"]}


def verdict(base: list, new: list, bound: float, better: str) -> str:
    """Whether new's median is worse than base's by more than bound, a share
    of base's median; "unresolved" when base's interquartile range is a
    larger share than the bound and not every new run beats every base run."""
    q1, _, q3 = statistics.quantiles(base, n=4)
    median, new_median = statistics.median(base), statistics.median(new)
    worse = (new_median - median) / median
    beats_all = max(new) < min(base)
    if better != "lower":
        worse, beats_all = (median - new_median) / median, min(new) > max(base)
    if worse > bound:
        return f"worse beyond the {bound:g} bound ({worse:+.1%})"
    if (q3 - q1) / median > bound and not beats_all:
        return f"unresolved: the parent's spread exceeds the {bound:g} bound"
    return f"within the {bound:g} bound ({worse:+.1%})"


def report(records: list, workload: str, bounds: dict) -> list:
    """One line per metric of workload's pairs that have both sides, none
    when there are fewer than two such pairs: the parent's median and
    quartiles, this checkout's median, the pairs it won and tied, whether the
    gap between the medians exceeds the parent's interquartile range, and
    the verdict against the metric's (bound, better) in bounds.  Then one
    line of each side's attempted and failed operations over those pairs."""
    pairs: dict = {}
    for rec in records:
        if rec["workload"] == workload:
            pairs.setdefault(rec["pair"], {})[rec["side"]] = rec["result"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    if len(pairs) < 2:
        return []
    lines = []
    for name in pairs[0]["parent"]["metrics"]:
        base = [p["parent"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["metrics"][name]["value"] for p in pairs]
        bound, better = bounds[name]
        q1, _, q3 = statistics.quantiles(base, n=4)
        gap = abs(statistics.median(new) - statistics.median(base))
        wins = sum(n < b if better == "lower" else n > b for b, n in zip(base, new))
        ties = sum(n == b for b, n in zip(base, new))
        lines.append(
            f"{workload} {name}: parent {statistics.median(base):.4g} [{q1:.4g}, {q3:.4g}]"
            f" change {statistics.median(new):.4g}, change {better} in {wins}/{len(pairs)},"
            f" tied in {ties}; median gap {gap:.4g}"
            f" {'exceeds' if gap > q3 - q1 else 'within'} the parent's IQR {q3 - q1:.4g}; "
            + verdict(base, new, bound, better))
    tried, failed, new_tried, new_failed = (
        sum(p[side][key] for p in pairs)
        for side in ("parent", "change") for key in ("attempted", "failed"))
    # The failed shares, compared cross-multiplied: a side may attempt none.
    larger = new_failed * tried > failed * new_tried
    lines.append(
        f"{workload} operations: parent attempted {tried}, failed {failed};"
        f" change attempted {new_tried}, failed {new_failed}; "
        + ("the change fails a larger share" if larger else "no larger failed share"))
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seeds,
                        help="one seed per pair: N or N-M, M >= N")
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--out", required=True, help="JSON list the runs are appended to")
    args = parser.parse_args()
    records = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            records = json.load(fh)
    pair = 1 + max((r["pair"] for r in records if r["workload"] == args.workload), default=0)
    for seed in args.seeds:
        sides = [("parent", args.parent), ("change", ROOT)]
        for side, checkout in sides[::-1] if pair % 2 else sides:
            records.append({"workload": args.workload, "seed": seed, "pair": pair,
                            "side": side, **revision(checkout),
                            "result": run(checkout, args.workload, seed, args.seconds)})
            with open(args.out, "w") as fh:
                json.dump(records, fh, indent=1)
                fh.write("\n")
        pair += 1
    for line in report(records, args.workload, load_bounds()):
        print(line)


if __name__ == "__main__":
    main()
