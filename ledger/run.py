#!/usr/bin/env python3
"""The perf ledger's one command.

    python3 ledger/run.py                       # every workload, untraced + traced
    python3 ledger/run.py --workload explore    # one workload, one run
    python3 ledger/run.py --smoke               # everything at 1/20 size

One *run* is one workload in this process: set-up, one warm-up rep, then
timed reps of identical fixed work for ``--seconds``.  Without
``--workload`` the command starts each run in a fresh subprocess and
gathers the results (``--out FILE`` keeps them as JSON).

Every number is taken from outside the program, by timing calls into
public functions of ``src/repro``.  ``--trace 0`` (the default) measures
the end-to-end metrics with no wrapper installed.  ``--trace 1``
alternates plain reps with reps under ``tracing.Tracer`` and prints the
per-layer metrics.  The last line of a run's output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only if every output was correct.
"""

import time

_T0 = time.perf_counter()

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload name -> (module, class)
WORKLOADS = {
    "net-fast-read": ("netbench", "FastRead"),
    "net-fanout-open": ("netbench", "FanoutOpen"),
    "net-audit-mixed": ("netbench", "AuditMixed"),
    "net-chaos": ("netbench", "Chaos"),
    "sweep-scalar": ("simbench", "SweepScalar"),
    "sweep-vector": ("simbench", "SweepVector"),
    "explore": ("explorebench", "Explore"),
    "check": ("checkbench", "Check"),
}

SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.3
#: set-up samples per run beyond the run's own: fresh subprocesses
SETUP_PROBES = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def box() -> str:
    with open("/proc/loadavg") as handle:
        load = " ".join(handle.read().split()[:3])
    return f"nproc={os.cpu_count()} loadavg={load}"


# ----------------------------------------------------------------------
# one run, in this process


def settle_allocator() -> None:
    """Fix glibc malloc's thresholds where its own adjustment ends.

    glibc starts with a 128 KiB mmap threshold and a 128 KiB trim
    threshold and raises both (up to 32 / 64 MiB) the first time a large
    mmapped block is freed.  Until a process happens to do that, buffers
    above the threshold are mapped, faulted in and unmapped on every
    use: ``net-fast-read`` then takes 20 page faults per op and runs
    1.7x slower (1.8 k against 3.0 k ops/s), and whether and when a
    process leaves that mode follows from its allocation history, not
    from the code under test.  A long-lived ``repro serve`` has left
    it; the ledger measures that settled state in every run.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: nothing to settle
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def workload_class(name: str):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"ledger: no src/repro under {ROOT}: nothing to measure")
    if sys.path[0] != os.path.join(ROOT, "src"):
        sys.path.insert(0, os.path.join(ROOT, "src"))
    module, cls = WORKLOADS[name]
    return getattr(__import__(module), cls)


def make_workload(name: str, seed: int, scale: float):
    settle_allocator()
    workload = workload_class(name)(seed, scale)
    workload.setup()
    workload.warmup()
    return workload, time.perf_counter() - _T0


def probe_setup(args) -> float:
    """Set-up time of one more fresh process (it exits once warm)."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_reps(seconds: float, one_rep) -> None:
    """Call ``one_rep`` until ``seconds`` are used; at least twice."""
    start, count = time.perf_counter(), 0
    while True:
        gc.collect()
        one_rep()
        count += 1
        elapsed = time.perf_counter() - start
        if count >= 2 and elapsed + 0.5 * elapsed / count >= seconds:
            return


def check_reps(reps, problems) -> None:
    """Count metrics repeat exactly; any rep's problem fails the run."""
    for rep in reps:
        problems.extend(rep["problems"])
        if rep["counts"] != reps[0]["counts"]:
            problems.append(f"counts differ between reps: "
                            f"{rep['counts']} != {reps[0]['counts']}")


def end_to_end(spec, workload, reps, setups):
    """Every end-to-end metric of the spec, from the untraced reps.

    A timing metric is the best rep (shortest time, highest rate): on a
    shared box the noise only ever adds time.  A metric the workload has
    no measurement of its own for carries the rep's wall time (time
    units) or the workload's primary rate (rate units), so the table the
    driver compares has no holes; README.md marks those cells.
    """
    walls = [rep["wall_s"] for rep in reps]
    out, series = {}, {}
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name == "setup_s":
            values, value = setups, statistics.median(setups)
        elif name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = [value]
        else:
            if name in reps[0]["e2e"]:
                values = [rep["e2e"][name] for rep in reps]
            elif unit in ("s", "ms"):
                values = [wall * (1e3 if unit == "ms" else 1.0) for wall in walls]
            else:
                values = [rep["e2e"][workload.primary] for rep in reps]
            value = min(values) if metric["better"] == "lower" else max(values)
        out[name] = {"value": value, "unit": unit}
        series[name] = values
    return out, series


def per_layer(spec, workload, plain, traced, traces, fail_share):
    """Every per-layer metric of the spec (0 where the workload has none)."""
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    rows = {}
    for rep in plain:
        for name, value in workload.secondary(rep).items():
            rows.setdefault(name, []).append(value)
    for rep, (aggs, counts) in zip(traced, traces):
        values = workload.layers(aggs, counts, rep)
        covered = sum(row["self_s"] for row in aggs["op"].values())
        values["trace.coverage_share"] = covered / rep["wall_s"]
        for name, value in values.items():
            rows.setdefault(name, []).append(value)
    plain_wall = statistics.median(rep["wall_s"] for rep in plain)
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    rows["trace.overhead_share"] = [traced_wall / plain_wall - 1.0]
    rows["op_fail_share"] = [fail_share]
    unknown = sorted(set(rows) - set(units))
    if unknown:
        sys.exit(f"ledger: metrics missing from BENCHMARK.json: {unknown}")
    out = {
        name: {"value": statistics.median(rows[name]) if name in rows else 0.0,
               "unit": unit}
        for name, unit in units.items()
    }
    return out, rows


def span_table(traces):
    """Calls / total / self per span name, median over the traced reps."""
    names = sorted({name for aggs, _ in traces for agg in aggs.values() for name in agg})
    table = {}
    for name in names:
        rows = [agg[name] for aggs, _ in traces for agg in aggs.values() if name in agg]
        table[name] = {
            key: statistics.median(row[key] for row in rows)
            for key in ("calls", "total_s", "self_s")
        }
    return table


def run_one(args) -> int:
    spec = load_spec()
    scale = SMOKE_SCALE if args.smoke else 1.0
    workload, own_setup = make_workload(args.workload, args.seed, scale)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    from common import iqr

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    started_on = box()
    problems, detail = [], {}
    plain, traced, traces = [], [], []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        points = workload.trace_points()

        def pair() -> None:
            plain.append(workload.rep())
            gc.collect()
            tracer.wrap_all(points)
            try:
                rep = workload.rep()
                traces.append((
                    {key: tracer.aggregate(window)
                     for key, window in rep["windows"].items()},
                    dict(tracer.counts),
                ))
                traced.append(rep)
            finally:
                tracer.remove()
                tracer.reset()

        timed_reps(seconds, pair)
    else:
        timed_reps(seconds, lambda: plain.append(workload.rep()))
    reps = plain + traced
    check_reps(reps, problems)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    correct = not problems and failed == 0
    if args.trace:
        metrics, series = per_layer(
            spec, workload, plain, traced, traces, failed / attempted)
        detail["spans"] = span_table(traces)
    else:
        setups = [own_setup] + [
            probe_setup(args) for _ in range(0 if args.smoke else SETUP_PROBES)
        ]
        metrics, series = end_to_end(spec, workload, plain, setups)

    print(f"# ledger {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(plain)}+{len(traced)} {started_on}")
    for problem in problems:
        print(f"# PROBLEM: {problem}")
    for name, metric in metrics.items():
        values = series.get(name, [])
        spread = ""
        if len(values) > 1:
            spread = (f"   [{len(values)} reps: median "
                      f"{statistics.median(values):.6g}, iqr {iqr(values):.3g}]")
        print(f"{name:44s} {metric['value']:14.6g} {metric['unit']}{spread}")
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, box=started_on,
        reps=series, problems=problems,
        counts=reps[0]["counts"], inputs=workload.inputs_digest(),
    )
    print("#detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the whole ledger: every workload in its own subprocess


def collect(args, echo=print):
    """Run every workload untraced and traced, each in a fresh process."""
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        sys.exit("ledger: BENCHMARK.json workloads differ from run.py's")
    results, status = {}, 0
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr)
            if not lines or not lines[-1].startswith("{"):
                echo(f"# {name} trace={trace}: no result (exit {done.returncode})")
                continue
            result = json.loads(lines[-1])
            detail = [line for line in lines if line.startswith("#detail ")]
            result["detail"] = json.loads(detail[-1][len("#detail "):])
            results[name]["traced" if trace else "untraced"] = result
            echo("\n".join(line for line in lines[:-1]
                           if not line.startswith("#detail ")))
    return results, status


def run_all(args) -> int:
    results, status = collect(args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"format": "repro-ledger/v1", "seed": args.seed,
                       "seconds": args.seconds, "smoke": args.smoke,
                       "workloads": results}, handle, indent=1, sort_keys=True)
    print(f"# ledger: {'ok' if status == 0 else 'FAILED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", help="write every result as JSON (whole ledger)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, a fraction of a second per run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
