"""Online, single-pass history validation.

The sweep pipeline used to judge each finished run by four separate
full-history traversals (atomicity search, regularity scan, fastness
rescan per operation, plus a latency scan for the metrics).  This module
replaces that with one :class:`HistoryValidator` per run that

* is fed **operations as they complete** (wire :meth:`observe_response`
  to :meth:`repro.sim.runtime.Simulation.on_response`), accumulating
  latency and completion tallies online with O(1) work per operation;
* optionally consumes **trace events as they are recorded**
  (:meth:`observe_trace`) through the single-pass
  :class:`~repro.spec.fastness.FastnessScan`, so the fastness verdict
  costs one forward pass over the trace instead of a rescan per
  operation;
* computes each correctness verdict **once**, on first request, with
  the fast checkers — and caches it, so a runner, a report section and a
  CLI printout asking the same question pay for one check total.

Verdicts are bit-identical to calling the batch checkers directly on the
finished history: the validator defers final judgement to them (over its
incrementally collected state) precisely so that ties between a read's
response and a later write's invocation — which an eager judge-at-
response-time scheme would misorder — cannot change an outcome.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.trace import TraceEvent, TraceLog
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.fastness import FastnessScan, check_all_fast
from repro.spec.histories import History, Operation, Verdict
from repro.spec.linearizability import check_linearizable
from repro.spec.regularity import check_swmr_regularity


class HistoryValidator:
    """Incremental validator for one run's history (and optional trace).

    Args:
        history: the run's (possibly still growing) history.
        trace: the run's trace log; ``None`` or a disabled log means
            fastness cannot be judged (sweeps run without traces).
        swmr: force the single-writer atomicity checker (``True``), the
            general linearizability checker (``False``), or decide from
            the finished history (``None``).  Runners pass the cluster
            configuration's writer count so the verdict choice matches
            the old per-run checking exactly.
    """

    def __init__(
        self,
        history: History,
        trace: Optional[TraceLog] = None,
        swmr: Optional[bool] = None,
    ) -> None:
        self.history = history
        self.trace = trace
        self._swmr = swmr
        self._scan = FastnessScan()
        self._drained = 0
        self.ops_complete = 0
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        self._verdicts: Dict[str, Verdict] = {}

    # ------------------------------------------------------------------
    # online feeding

    def observe_response(self, op: Operation) -> None:
        """Account one completed operation (hook for ``on_response``)."""
        self.ops_complete += 1
        latency = op.responded_at - op.invoked_at
        if op.is_read:
            self.read_latencies.append(latency)
        else:
            self.write_latencies.append(latency)

    def observe_trace(self, event: TraceEvent) -> None:
        """Stream one trace event into the fastness scan."""
        self._scan.observe(event)
        self._drained += 1

    def _drain_trace(self) -> None:
        """Consume trace events recorded since the last drain."""
        if self.trace is None:
            return
        events = self.trace.events
        if self._drained >= len(events):
            return
        # Invokers may be missing when events were not streamed from the
        # start (e.g. scripted executions); registration is idempotent.
        for op in self.history.operations:
            self._scan.register_operation(op)
        for event in events[self._drained:]:
            self._scan.observe(event)
        self._drained = len(events)

    # ------------------------------------------------------------------
    # verdicts (computed once, cached)

    def _is_swmr(self) -> bool:
        if self._swmr is None:
            return self.history.single_writer()
        return self._swmr

    def atomic_verdict(self) -> Verdict:
        """SWMR atomicity for single-writer regimes, linearizability else."""
        verdict = self._verdicts.get("atomic")
        if verdict is None:
            if self._is_swmr():
                verdict = check_swmr_atomicity(self.history)
            else:
                verdict = check_linearizable(self.history)
            self._verdicts["atomic"] = verdict
        return verdict

    def regular_verdict(self) -> Verdict:
        verdict = self._verdicts.get("regular")
        if verdict is None:
            verdict = check_swmr_regularity(self.history)
            self._verdicts["regular"] = verdict
        return verdict

    def fast_verdict(self) -> Verdict:
        verdict = self._verdicts.get("fast")
        if verdict is None:
            self._drain_trace()
            verdict = check_all_fast(
                self.trace, self.history, scan=self._scan
            )
            self._verdicts["fast"] = verdict
        return verdict

    def rounds_histogram(self) -> Dict[str, Dict[int, int]]:
        """Client-round distribution per kind, off the shared scan."""
        from repro.spec.fastness import rounds_histogram

        self._drain_trace()
        return rounds_histogram(self.trace, self.history, scan=self._scan)


def check_history(history: History) -> Dict[str, object]:
    """Judge a finished history in one call (the ``repro check`` engine).

    Returns a plain summary dict:

    * ``"single_writer"`` — whether the history has at most one writer;
    * ``"verdicts"`` — ordered name → :class:`Verdict` mapping:
      ``atomic`` always, then ``linearizable`` and ``regular`` for
      single-writer histories or ``p1p2`` for multi-writer ones;
    * ``"cross_check_ok"`` — whether the independent general
      linearization search agreed with the fast single-writer verdict
      (vacuously ``True`` for multi-writer histories, where no fast
      path is taken);
    * ``"inversions"`` — new/old inversion count (single-writer only,
      otherwise ``None``);
    * ``"ok"`` — every verdict holds and the cross-check agrees.
    """
    from repro.spec.linearizability import (
        check_linearizable,
        check_mwmr_p1_p2,
        find_linearization,
    )
    from repro.spec.regularity import count_new_old_inversions

    single_writer = history.single_writer()
    validator = validate_history(history, swmr=single_writer)
    verdicts: Dict[str, Verdict] = {"atomic": validator.atomic_verdict()}
    cross_check_ok = True
    inversions: Optional[int] = None
    if single_writer:
        linearizable = check_linearizable(history)
        verdicts["linearizable"] = linearizable
        verdicts["regular"] = validator.regular_verdict()
        # Independent cross-check: the verdict above took the greedy
        # single-writer fast path; the witness search always runs the
        # general segmented search.  The two must agree.
        witness = find_linearization(history)
        cross_check_ok = (witness is not None) == linearizable.ok
        inversions, _ = count_new_old_inversions(history)
    else:
        verdicts["p1p2"] = check_mwmr_p1_p2(history)
    ok = all(verdict.ok for verdict in verdicts.values()) and cross_check_ok
    return {
        "single_writer": single_writer,
        "verdicts": verdicts,
        "cross_check_ok": cross_check_ok,
        "inversions": inversions,
        "ok": ok,
    }


def validate_history(
    history: History,
    trace: Optional[TraceLog] = None,
    swmr: Optional[bool] = None,
) -> HistoryValidator:
    """One-shot wrapper: wrap a finished history in a validator.

    Standalone entry point used by ``repro check`` and tests; sweep
    runners construct the validator up front and feed it online instead.
    """
    validator = HistoryValidator(history, trace=trace, swmr=swmr)
    for op in history.operations:
        if op.complete:
            validator.observe_response(op)
    return validator
