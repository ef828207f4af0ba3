"""The ``check`` workload: the history checkers on a seeded corpus."""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List

from repro.registers.base import ClusterConfig
from repro.spec import histories, online
from repro.workloads.generators import ClosedLoopWorkload
from repro.workloads.runner import run_workload

from common import Workload, seed32
from tracing import per


class Check(Workload):
    """Multi-writer histories judged in memory, single-writer ones via JSON.

    The multi-writer half takes the general linearizability search; the
    single-writer half takes the greedy fast path plus its cross-check,
    after a ``History.from_json`` load — what ``repro check FILE`` does.
    Multi-writer histories stay in memory because ``from_json`` turns
    their tuple values into lists, which ``check_history`` cannot hash
    (a ``src/`` defect listed in the README's known gaps).
    """

    name = "check"
    primary = "histories_per_s"
    # What one history costs to judge grows with the square of its
    # length and differs by +-25 % from one seed to the next, so the
    # corpus is many mid-sized histories and not a few long ones: the
    # rep's total then moves ~3 % with ``--seed``.
    MWMR = 32  # 98 operations each, 3 writers
    SWMR = 32  # 498 operations each

    def setup(self) -> None:
        ops = self.size(10, floor=2)
        mw_load = ClosedLoopWorkload(  # 4 x 17 reads + 3 x 10 writes
            reads_per_reader=ops * 7 // 4, writes_per_writer=ops,
            think_time_mean=0.5, start_spread=1.0,
        )
        sw_load = ClosedLoopWorkload(  # 4 x 112 reads + 50 writes
            reads_per_reader=ops * 45 // 4, writes_per_writer=ops * 5,
            think_time_mean=0.5, start_spread=1.0,
        )
        self.mwmr = [
            run_workload(
                "mwmr", ClusterConfig(S=5, t=1, R=4, W=3), mw_load,
                seed=seed32(self.seed, self.name, "mwmr", index), record_trace=False,
            ).history
            for index in range(self.MWMR)
        ]
        self.swmr = [
            run_workload(
                "abd", ClusterConfig(S=5, t=1, R=4), sw_load,
                seed=seed32(self.seed, self.name, "swmr", index), record_trace=False,
            ).history.to_json()
            for index in range(self.SWMR)
        ]
        self.ops = sum(len(h) for h in self.mwmr)

    def inputs_digest(self) -> str:
        hasher = hashlib.sha256()
        for history in self.mwmr:
            hasher.update(history.to_json().encode())
        for text in self.swmr:
            hasher.update(text.encode())
        return hasher.hexdigest()[:16]

    def warmup(self) -> None:
        online.check_history(self.mwmr[0])
        online.check_history(histories.History.from_json(self.swmr[0]))

    def rep(self) -> Dict[str, Any]:
        bad: List[str] = []
        load_s, loaded_ops = 0.0, 0
        begin = time.perf_counter_ns()
        for index, history in enumerate(self.mwmr):
            if not online.check_history(history)["ok"]:
                bad.append(f"mwmr history {index} judged not ok")
        middle = time.perf_counter_ns()
        for index, text in enumerate(self.swmr):
            start = time.perf_counter()
            history = histories.History.from_json(text)
            load_s += time.perf_counter() - start
            loaded_ops += len(history)
            if not online.check_history(history)["ok"]:
                bad.append(f"swmr history {index} judged not ok")
        end = time.perf_counter_ns()
        total = self.MWMR + self.SWMR
        wall = (end - begin) / 1e9
        return {
            "wall_s": wall,
            "windows": {"op": (begin, end)},
            "e2e": {"histories_per_s": total / wall},
            "counts": {"histories": total, "ops": self.ops + loaded_ops},
            "attempted": total,
            "failed": len(bad),
            "problems": bad,
            "info": {
                "mwmr_s": (middle - begin) / 1e9,
                "swmr_s": (end - middle) / 1e9,
                "load_s": load_s,
                "loaded_ops": loaded_ops,
            },
        }

    def trace_points(self) -> List[tuple]:
        from repro.spec import linearizability, regularity

        return [
            (online, "check_history", "spec:check_history"),
            (online, "validate_history", "spec:validate"),
            (online.HistoryValidator, "atomic_verdict", "spec:atomic_verdict"),
            (online.HistoryValidator, "regular_verdict", "spec:regular_verdict"),
            (histories.History, "from_json", "spec:from_json"),
            (linearizability, "check_linearizable", "spec:check_linearizable"),
            (linearizability, "find_linearization", "spec:find_linearization"),
            (linearizability, "check_mwmr_p1_p2", "spec:check_mwmr_p1_p2"),
            (regularity, "count_new_old_inversions", "spec:inversions"),
        ]

    def secondary(self, rep) -> Dict[str, float]:
        info = rep["info"]
        return {
            "spec.mwmr_histories_per_s": per(self.MWMR, info["mwmr_s"]),
            "spec.swmr_histories_per_s": per(self.SWMR, info["swmr_s"]),
            "spec.json_load_us_per_op": per(info["load_s"], info["loaded_ops"], 1e6),
        }
