"""Threshold-boundary cases.

The parameter sets on the fast-feasibility frontier (feasible at
``maxR``, infeasible at ``maxR + 1``) that the boundary and
lower-bound construction tests sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.bounds.feasibility import fast_feasible, max_readers


@dataclass(frozen=True)
class BoundaryCase:
    """A parameter set sitting exactly on the fast-feasibility frontier.

    ``R_ok`` is the largest fast-feasible reader count and
    ``R_bad = R_ok + 1`` the smallest infeasible one; boundary tests run
    the protocol at ``R_ok`` and the construction at ``R_bad``.
    """

    S: int
    t: int
    b: int
    R_ok: int

    @property
    def R_bad(self) -> int:
        return self.R_ok + 1


def boundary_cases(
    S_values: Iterable[int],
    t_values: Iterable[int],
    b_values: Iterable[int] = (0,),
    min_ok_readers: int = 1,
) -> List[BoundaryCase]:
    """Boundary cases with at least ``min_ok_readers`` feasible readers.

    Cases where ``R_bad < 2`` are skipped: Propositions 5/10 need two
    readers for the impossibility side.
    """
    cases: List[BoundaryCase] = []
    for S in S_values:
        for t in t_values:
            if t < 1 or t >= S:
                continue
            for b in b_values:
                if b > t:
                    continue
                r_max = max_readers(S, t, b)
                if math.isinf(r_max):
                    continue
                r_ok = int(r_max)
                if r_ok < min_ok_readers:
                    continue
                if r_ok + 1 < 2:
                    continue
                assert fast_feasible(S, t, r_ok, b)
                assert not fast_feasible(S, t, r_ok + 1, b)
                cases.append(BoundaryCase(S=S, t=t, b=b, R_ok=r_ok))
    return cases
