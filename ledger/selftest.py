#!/usr/bin/env python3
"""The ledger checks itself: ``python3 ledger/selftest.py`` (under a minute).

1. A smoke pass (every workload at 1/20 size, untraced and traced) is
   correct, and the workload and metric names it prints are exactly the
   names in BENCHMARK.json; every per-layer name is produced by at
   least one workload.
2. After a traced rep every wrapped attribute of ``src/repro`` is the
   original object again.
3. A second ``--seed`` changes the generated inputs (jitter, seed-matrix
   root, fault-plan seed, walk seed, corpus seeds) and the same seed
   reproduces them.  The program only ever receives generated inputs.
"""

import argparse
import os
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from tracing import Tracer  # noqa: E402  (needs src/ on the path)


def check(ok: bool, text: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + text)
    if not ok:
        failures.append(text)


def smoke_names(failures: list) -> None:
    spec = run.load_spec()
    args = argparse.Namespace(seed=0, seconds=run.SMOKE_SECONDS, smoke=True)
    results, status = run.collect(args, echo=lambda text: None)
    check(status == 0, "smoke pass: every run correct", failures)
    check(list(results) == [w["name"] for w in spec["workloads"]],
          "workload names == BENCHMARK.json", failures)
    produced = set()
    for kind, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
        want = [metric["name"] for metric in spec[key]]
        for name, runs in results.items():
            got = list(runs.get(kind, {}).get("metrics", {}))
            check(got == want, f"{name} {kind}: metric names == {key}", failures)
            produced |= set(runs.get(kind, {}).get("detail", {}).get("reps", {}))
    idle = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    check(not idle, f"every per-layer metric has a producer {idle}", failures)


def wrappers_and_seeds(failures: list) -> None:
    for name in run.WORKLOADS:
        factory = run.workload_class(name)
        workload = factory(0, run.SMOKE_SCALE)
        workload.setup()
        points = workload.trace_points()
        before = [vars(point[0]).get(point[1]) for point in points]
        tracer = Tracer()
        tracer.wrap_all(points)
        try:
            workload.rep()
        finally:
            tracer.remove()
        after = [vars(point[0]).get(point[1]) for point in points]
        check(bool(tracer.spans) and tracer.installed == 0
              and all(a is b for a, b in zip(before, after)),
              f"{name}: {len(points)} wrappers recorded spans and are gone",
              failures)
        again, other = factory(0, run.SMOKE_SCALE), factory(1, run.SMOKE_SCALE)
        again.setup()
        other.setup()
        check(workload.inputs_digest() == again.inputs_digest()
              and workload.inputs_digest() != other.inputs_digest(),
              f"{name}: inputs follow --seed", failures)


def main() -> int:
    failures: list = []
    smoke_names(failures)
    wrappers_and_seeds(failures)
    print("selftest:", "ok" if not failures else f"{len(failures)} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
