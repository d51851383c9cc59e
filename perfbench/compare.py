#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a `perfbench-results` directory written by `run.py`
(one JSON record per run). Work counts are checked first: a count that
differs between two runs of one commit, or between the commits on the same
seed, is flagged, because then the two sides did not do the same work.
Then, per workload, every end-to-end metric of the untraced runs is shown
as median and quartiles on each side, with the change of the medians as a
share of the base median. Exits 1 if any metric got worse by more than its
bound in BENCHMARK.json.
"""

import json
import os
import statistics
import sys


def load(directory):
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                records.append(json.load(f))
    return records


def count_flags(base, new):
    """Counts that differ between runs of one seed and mode: within a side,
    or between the sides where each side repeats exactly."""
    groups = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            key = (r["workload"], r["trace"], r["seed"], r["seconds"])
            groups.setdefault(key, {}).setdefault(side, []).append(r["counts"])

    def differing(counts):
        keys = sorted({k for c in counts for k in c})
        return [k for k in keys if len({c.get(k) for c in counts}) > 1]

    flags = []
    for (workload, trace, seed, _), sides in sorted(groups.items()):
        where = f"{workload} trace={trace} seed={seed}"
        for side, counts in sides.items():
            if differing(counts):
                flags.append(f"{side} {where}: {', '.join(differing(counts))}")
        if len(sides) == 2 and not any(differing(c) for c in sides.values()):
            across = differing([sides["base"][0], sides["new"][0]])
            if across:
                flags.append(f"base~new {where}: {', '.join(across)}")
    return flags


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])

    flags = count_flags(base, new)
    for f in flags:
        print(f"COUNTS DIFFER  {f}")
    if flags:
        print("(times below compare different work where counts differ)\n")

    worse = False
    for w in spec["workloads"]:
        rows = []
        for m in spec["end_to_end"]:
            side = []
            for records in (base, new):
                vals = [r["metrics"][m["name"]]["value"] for r in records
                        if r["workload"] == w["name"] and r["trace"] == 0 and m["name"] in r["metrics"]]
                side.append(vals)
            if not side[0] or not side[1]:
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(side[0]), quartiles(side[1])
            change = (nm - bm) / bm if bm else 0.0
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse |= regress
            rows.append(f"  {m['name']:22s} {bm:12.5g} [{b1:.5g}..{b3:.5g}]  "
                        f"{nm:12.5g} [{n1:.5g}..{n3:.5g}]  {change:+7.1%}  "
                        f"bound {m['bound']:.0%} {'WORSE' if regress else ''}")
        if rows:
            print(f"{w['name']}  (median [q1..q3], base then new, n={len(side[0])}/{len(side[1])})")
            print("\n".join(rows))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
