"""Protocol registry: one place enumerating every implementation.

Each register module ends in one ``SPEC``
(:class:`~repro.registers.base.ProtocolSpec`) — the protocol's name,
facts, requirement and automata, declared next to the automata
themselves.  This module only lists them: benchmarks, the CLI and the
sweep machinery iterate over :data:`PROTOCOLS` instead of importing
protocol modules directly, so adding a module's ``SPEC`` to the tuple
below enrolls it everywhere.
"""

from __future__ import annotations

from typing import Dict

from repro.registers import (
    abd,
    fast_byzantine,
    fast_crash,
    maxmin,
    mwmr,
    naive_mwmr,
    regular,
    semifast,
    swsr,
)
from repro.registers.base import ProtocolSpec

PROTOCOLS: Dict[str, ProtocolSpec] = {
    module.SPEC.name: module.SPEC
    for module in (
        fast_crash,
        fast_byzantine,
        abd,
        maxmin,
        swsr,
        regular,
        semifast,
        mwmr,
        naive_mwmr,
    )
}


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS))
        raise KeyError(f"unknown protocol {name!r}; known: {known}") from None
