"""Oracle adapter, schedule shrinking and counterexample artifacts.

The oracle feeds every explored history through the same online/spec
pipeline that judges simulation sweeps (:mod:`repro.spec.online`), so an
explorer verdict and a ``repro check`` verdict can never drift apart.
On violation the schedule is shrunk to a 1-minimal counterexample (no
single action can be dropped without losing the violation) and
serialized — schedule, scenario, verdict and full history JSON — for
byte-exact replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.accountability import audit, verify_fraud_proof
from repro.errors import ScheduleError, SpecificationError
from repro.explore.driver import ExploreScenario, ScheduleDriver, collect_transcript
from repro.explore.targets import ATOMIC, REGULAR
from repro.spec.histories import History, Verdict
from repro.spec.online import validate_history

#: Accountability verdicts attached to ``lie:…`` counterexamples.
FRAUD_PROOF = "fraud-proof"
DETECTABILITY_GAP = "detectability-gap"


class Oracle:
    """Judges a (possibly partial) history against one property.

    Verdicts run through :func:`repro.spec.online.validate_history` — the
    PR-2 pipeline — with the writer count pinned from the scenario
    configuration, exactly as the workload runner does.
    """

    def __init__(self, property_name: str, single_writer: bool) -> None:
        if property_name not in (ATOMIC, REGULAR):
            raise SpecificationError(f"unknown oracle property {property_name!r}")
        self.property_name = property_name
        self.single_writer = single_writer

    @classmethod
    def for_scenario(cls, scenario: ExploreScenario) -> "Oracle":
        target = scenario.resolve()
        return cls(target.property, single_writer=scenario.config.W == 1)

    def judge(self, history: History) -> Verdict:
        validator = validate_history(history, swmr=self.single_writer)
        if self.property_name == REGULAR:
            return validator.regular_verdict()
        return validator.atomic_verdict()


class WalkOracle(Oracle):
    """An :class:`Oracle` for one walk's growing history: it re-judges
    only when an operation settled since its last verdict.  In between,
    a walk only invokes, delivers and crashes; an operation invoked after
    every completed one responded cannot break an ok verdict, and a
    violation ends the walk — so the last verdict stands."""

    def __init__(self, oracle: Oracle) -> None:
        super().__init__(oracle.property_name, oracle.single_writer)
        self._settled = -1
        self._verdict: Optional[Verdict] = None

    def judge(self, history: History) -> Verdict:
        if history.settled != self._settled:
            self._settled = history.settled
            self._verdict = super().judge(history)
        return self._verdict


@dataclass
class Counterexample:
    """A minimal violating schedule plus everything needed to replay it.

    Three artifact schema versions coexist:

    * ``v1`` — crash-only scenarios (no adversary content choices).
    * ``v2`` — additionally carries the adversary strategy menu and
      Byzantine budget inside the scenario, so ``lie:…`` schedules
      replay byte-exactly.
    * ``v3`` — additionally embeds the accountability verdict of the
      run's transcript audit: either a serialized
      ``repro-fraud-proof/v1`` certificate naming the corrupted server,
      or an explicit detectability-gap marker.

    Loading preserves the artifact's version and serialization emits it
    back, so a v1 corpus entry round-trips through
    ``from_json``/``to_json`` unchanged; new artifacts are written as
    v3 when an audit ran (``lie:…`` schedules) and degrade to the
    v2/v1 payload shapes otherwise.
    """

    FORMAT_V1 = "repro-counterexample/v1"
    FORMAT_V2 = "repro-counterexample/v2"
    FORMAT_V3 = "repro-counterexample/v3"
    FORMAT = FORMAT_V3
    FORMATS = (FORMAT_V1, FORMAT_V2, FORMAT_V3)

    scenario: ExploreScenario
    property_name: str
    schedule: List[str]
    verdict: Verdict
    history: History
    provenance: Dict = field(default_factory=dict)
    format_version: str = FORMAT_V2
    #: ``{"verdict": "fraud-proof"|"detectability-gap", "proof": … }``
    #: for audited (v3) artifacts, else ``None``.
    accountability: Optional[Dict] = None

    def key(self) -> tuple:
        """Stable identity for deterministic merging and deduplication."""
        return (self.scenario.target, self.property_name, tuple(self.schedule))

    def to_dict(self) -> Dict:
        payload = {
            "format": self.format_version,
            "scenario": self.scenario.to_dict(),
            "property": self.property_name,
            "schedule": list(self.schedule),
            "verdict": {
                "ok": self.verdict.ok,
                "property_name": self.verdict.property_name,
                "reason": self.verdict.reason,
                "culprits": list(self.verdict.culprits),
            },
            "history": self.history.to_dict(),
            "provenance": self.provenance,
        }
        if self.format_version == self.FORMAT_V3:
            payload["accountability"] = self.accountability
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict) -> "Counterexample":
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt not in cls.FORMATS:
            # A clear schema-version error beats mis-parsing: name the
            # artifact family when it is one of ours (e.g. a future v4
            # written by a newer build) and reject everything else.
            if isinstance(fmt, str) and fmt.startswith("repro-counterexample/"):
                raise SpecificationError(
                    f"unsupported counterexample schema {fmt!r}: this build "
                    f"reads {', '.join(cls.FORMATS)}; a newer artifact needs "
                    "a newer build"
                )
            raise SpecificationError(
                f"not a counterexample artifact (format {fmt!r}; expected one "
                f"of {', '.join(cls.FORMATS)})"
            )
        verdict = payload.get("verdict")
        wanted = ["scenario", "property", "schedule", "verdict", "history"]
        missing = [name for name in wanted if name not in payload]
        if isinstance(verdict, dict):
            wanted = ("ok", "property_name", "reason", "culprits")
            missing += [f"verdict.{name}" for name in wanted if name not in verdict]
        if missing:
            raise SpecificationError(
                f"counterexample artifact lacks {', '.join(missing)}"
            )
        scenario = ExploreScenario.from_dict(payload["scenario"])
        if fmt == cls.FORMAT_V1 and scenario.byzantine_budget > 0:
            raise SpecificationError(
                "v1 counterexamples cannot carry adversary content choices"
            )
        if fmt != cls.FORMAT_V3 and payload.get("accountability") is not None:
            raise SpecificationError(
                f"{fmt} counterexamples cannot carry an accountability section"
            )
        return cls(
            scenario=scenario,
            property_name=payload["property"],
            schedule=list(payload["schedule"]),
            verdict=Verdict(
                ok=bool(verdict["ok"]),
                property_name=verdict["property_name"],
                reason=verdict["reason"],
                culprits=tuple(verdict["culprits"]),
            ),
            history=History.from_dict(payload["history"]),
            provenance=dict(payload.get("provenance", {})),
            format_version=fmt,
            accountability=payload.get("accountability"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Counterexample":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        lines = [
            f"counterexample: {self.scenario.target} "
            f"(S={self.scenario.config.S}, t={self.scenario.config.t}, "
            f"R={self.scenario.config.R}, W={self.scenario.config.W})",
            f"verdict: {self.verdict.describe()}",
            f"schedule ({len(self.schedule)} actions): "
            + " ; ".join(self.schedule),
        ]
        lines.append(self.history.describe())
        return "\n".join(lines)


def _lenient_run(
    scenario: ExploreScenario, labels: Sequence[str], oracle: Oracle
) -> tuple:
    """Apply the labels that are applicable, in order.

    Returns ``(executed_labels, violating)``.  Labels whose action is no
    longer enabled (their cause was shrunk away) are skipped, so any
    subsequence of a valid schedule is runnable.
    """
    driver = ScheduleDriver(scenario)
    executed: List[str] = []
    for label in labels:
        try:
            driver.apply(label)
        except ScheduleError:
            continue
        executed.append(label)
    verdict = oracle.judge(driver.history)
    return executed, not verdict.ok


def shrink_schedule(
    scenario: ExploreScenario, labels: Sequence[str], oracle: Oracle
) -> List[str]:
    """Greedy delta-debugging to a 1-minimal violating schedule.

    Tries removing exponentially shrinking chunks, then single actions,
    re-running leniently each time; keeps any candidate that still
    violates.  The result strictly replays (every label enabled in
    order) because the lenient run that validated it executed exactly
    those labels.
    """
    current, violating = _lenient_run(scenario, labels, oracle)
    if not violating:
        raise ScheduleError("cannot shrink: schedule does not violate the oracle")
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        shrunk_this_round = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            executed, still_violating = _lenient_run(scenario, candidate, oracle)
            if still_violating:
                current = executed
                shrunk_this_round = True
                # re-test the same start: the window now holds new labels
            else:
                start += chunk
        if chunk == 1 and not shrunk_this_round:
            break
        chunk = chunk // 2 if chunk > 1 else 1
        if chunk == 1 and shrunk_this_round:
            continue
    return current


def build_counterexample(
    scenario: ExploreScenario,
    labels: Sequence[str],
    oracle: Oracle,
    provenance: Optional[Dict] = None,
    shrink: bool = True,
) -> Counterexample:
    """Shrink a violating schedule and package the replayed artifact."""
    schedule = (
        shrink_schedule(scenario, labels, oracle) if shrink else list(labels)
    )
    driver = ScheduleDriver(scenario)
    driver.run(schedule)
    verdict = oracle.judge(driver.history)
    if verdict.ok:
        raise ScheduleError("shrunk schedule no longer violates the oracle")
    accountability = None
    format_version = Counterexample.FORMAT_V2
    if any(label.startswith("lie:") for label in schedule):
        # A Byzantine server lied on this schedule: audit the run's
        # signed-statement transcript.  A certificate is a pair of
        # verified contradictory statements; a violation that yields no
        # certificate is an explicit detectability gap (the lie
        # contradicted nothing the server previously signed).
        _, transcript = collect_transcript(scenario, schedule)
        proof = audit(transcript)
        accountability = {
            "verdict": FRAUD_PROOF if proof is not None else DETECTABILITY_GAP,
            "proof": proof.to_dict() if proof is not None else None,
        }
        format_version = Counterexample.FORMAT_V3
    return Counterexample(
        scenario=scenario,
        property_name=oracle.property_name,
        schedule=list(schedule),
        verdict=verdict,
        history=driver.history,
        provenance=dict(provenance or {}),
        format_version=format_version,
        accountability=accountability,
    )


def replay_counterexample(counterexample: Counterexample) -> Dict[str, bool]:
    """Strictly re-run a counterexample and compare against the artifact.

    Returns a small report with byte-exactness of the history and
    equality of the verdict; raises :class:`ScheduleError` if the
    schedule itself no longer replays.
    """
    scenario = counterexample.scenario
    driver = ScheduleDriver(scenario)
    driver.run(counterexample.schedule)
    oracle = Oracle(
        counterexample.property_name, single_writer=scenario.config.W == 1
    )
    verdict = oracle.judge(driver.history)
    report = {
        "history_identical": driver.history.to_json()
        == counterexample.history.to_json(),
        "verdict_identical": (
            verdict.ok == counterexample.verdict.ok
            and verdict.property_name == counterexample.verdict.property_name
            and verdict.reason == counterexample.verdict.reason
            and verdict.culprits == counterexample.verdict.culprits
        ),
        "violates": not verdict.ok,
    }
    if counterexample.accountability is not None:
        # Re-derive the accountability verdict from scratch and require
        # the certificate (when present) to match byte for byte *and*
        # to verify independently from its serialized form alone.
        from repro.accountability import FraudProof

        _, transcript = collect_transcript(scenario, counterexample.schedule)
        proof = audit(transcript)
        recorded = counterexample.accountability
        recorded_proof = recorded.get("proof")
        derived_verdict = (
            FRAUD_PROOF if proof is not None else DETECTABILITY_GAP
        )
        report["accountability_identical"] = (
            derived_verdict == recorded.get("verdict")
            and (
                (proof is None and recorded_proof is None)
                or (
                    proof is not None
                    and recorded_proof is not None
                    and proof.to_json()
                    == FraudProof.from_dict(recorded_proof).to_json()
                )
            )
        )
        report["certificate_verifies"] = (
            recorded_proof is not None and verify_fraud_proof(recorded_proof)
        )
    return report
