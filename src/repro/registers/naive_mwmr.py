"""Naive one-round MWMR register — the strawman Proposition 11 demolishes.

Section 7 proves that **no** fast multi-writer atomic register exists,
even with a single crash-faulty server.  To make the impossibility
executable we need a concrete candidate: this module implements the
obvious attempt —

* writes are one round: each writer stamps values with a local counter
  (ties broken by writer id) and stores to all servers, returning after
  ``S - t`` acks, without ever querying;
* reads are one round: query ``S - t`` servers, return the
  highest-timestamped value, no write-back.

The run-chain construction of
:mod:`repro.bounds.mwmr_construction` executes the proof's schedule
against this protocol (or any other fast candidate) and extracts a
concrete history violating property P1 or P2 of atomicity.  The flaw is
structural, not an implementation bug: a one-round writer cannot learn
about concurrent writers, so it cannot order its write after a write it
never saw.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.registers.abd import AbdWriter
from repro.registers.base import (
    Automata,
    ClusterConfig,
    ProtocolSpec,
    StorageServer,
)
from repro.registers.regular import RegularReader
from repro.registers.timestamps import INITIAL_MW_TAG, MWTimestamp, ValueTag

def requirement(config: ClusterConfig) -> Optional[str]:
    """Always buildable; known broken (that is its purpose)."""
    return None


class NaiveMwmrWriter(AbdWriter):
    """ABD's one-round writer, each writer stamping with its own local
    counter (ties broken by writer id) — provably insufficient.

    Reads are the regular register's: one round, highest tag wins.
    """

    def _stamp(self, value: Any) -> ValueTag:
        return ValueTag(
            ts=MWTimestamp(self.ts, self.pid.index),
            value=value,
            prev_value=self.last_value,
        )


SPEC = ProtocolSpec(
    name="naive-fast-mwmr",
    summary="One-round MWMR strawman; Proposition 11's victim (not atomic)",
    paper_source="Section 7 (impossibility target)",
    multi_writer=True,
    read_rounds=1,
    write_rounds=1,
    fast_reads=True,
    fast_writes=True,
    atomic=False,
    requirement=requirement,
    automata=Automata(
        lambda pid, _config: StorageServer(pid, INITIAL_MW_TAG),
        RegularReader,
        NaiveMwmrWriter,
    ),
)

