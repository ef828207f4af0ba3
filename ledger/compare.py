#!/usr/bin/env python3
"""Compare two ledger results: ``python3 ledger/compare.py A.json B.json``.

A and B are ``run.py --out`` files; A is the parent, B the change.  For
every (workload, end-to-end metric) the tool prints how much *worse* B
reads, as a share of A, against the metric's bound in BENCHMARK.json:

* ``ok``          not worse than the bound;
* ``REGRESSION``  worse than the bound, and the reps inside both files
                  are steadier than the bound;
* ``unresolved``  worse than the bound, but the reps' own spread
                  (inter-quartile range over the median) is wider than
                  the bound too, so these two files cannot decide.

Count metrics must agree exactly when both files used the same seed.
Exit code 1 on any regression or count mismatch, else 0.
"""

import json
import statistics
import sys

import run


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def spread(values) -> float:
    """Inter-quartile range of the reps as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(metric, a_run, b_run):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = a_run["metrics"][name]["value"]
    b = b_run["metrics"][name]["value"]
    worse = worse_by(a, b, better)
    a_reps = a_run["detail"]["reps"].get(name, [a])
    b_reps = b_run["detail"]["reps"].get(name, [b])
    noise = max(spread(a_reps), spread(b_reps))
    if worse <= bound:
        verdict = "ok"
    elif noise > bound:
        verdict = "unresolved"
    else:
        verdict = "REGRESSION"
    return a, b, worse, noise, verdict


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    with open(argv[1]) as handle:
        a_file = json.load(handle)
    with open(argv[2]) as handle:
        b_file = json.load(handle)
    spec = run.load_spec()
    status = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'rep iqr':>8s}  verdict")
    for entry in spec["workloads"]:
        name = entry["name"]
        a_run = a_file["workloads"][name]["untraced"]
        b_run = b_file["workloads"][name]["untraced"]
        for metric in spec["end_to_end"]:
            a, b, worse, noise, verdict = judge(metric, a_run, b_run)
            if verdict == "REGRESSION":
                status = 1
            print(f"{name:16s} {metric['name']:18s} {a:12.5g} {b:12.5g} "
                  f"{worse:+9.3f} {metric['bound']:6.2f} {noise:8.3f}  {verdict}")
        if a_file["seed"] == b_file["seed"]:
            for kind in ("untraced", "traced"):
                a_counts = a_file["workloads"][name][kind]["detail"]["counts"]
                b_counts = b_file["workloads"][name][kind]["detail"]["counts"]
                if a_counts != b_counts:
                    status = 1
                    print(f"{name:16s} COUNT MISMATCH ({kind}): "
                          f"{a_counts} != {b_counts}")
    print("compare:", "ok" if status == 0 else "FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
