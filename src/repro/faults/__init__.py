"""Fault injection for free-running simulations.

Crash plans schedule timing faults; ``corrupt(cluster, index,
strategy)`` gives a faulty replica arbitrary *content* behaviour.  Both
faces are specified by the unified adversary layer
(:mod:`repro.adversary`): the installed server applies one of its
bounded reply-corruption strategies, and the same strategies back the
schedule explorer's ``lie:…`` choice points — the adversary is one
inspectable model, not a pile of injectors.
"""

from repro.adversary import (
    Adversary,
    DEFAULT_MENU,
    DROP,
    STRATEGIES,
    ReplyStrategy,
    StrategyContext,
    get_strategy,
)
from repro.faults.byzantine import (
    ByzantineServer,
    MemoryWipeServer,
    StrategyServer,
    TwoFacedServer,
    corrupt,
    run_captured,
)
from repro.faults.crash import (
    CrashEvent,
    CrashPlan,
    crash_writer_mid_write,
    merge_plans,
    random_reader_crashes,
    random_server_crashes,
    server_crash_burst,
)

__all__ = [
    "Adversary",
    "ByzantineServer",
    "CrashEvent",
    "CrashPlan",
    "DEFAULT_MENU",
    "DROP",
    "MemoryWipeServer",
    "STRATEGIES",
    "ReplyStrategy",
    "StrategyContext",
    "StrategyServer",
    "TwoFacedServer",
    "corrupt",
    "crash_writer_mid_write",
    "get_strategy",
    "merge_plans",
    "random_reader_crashes",
    "random_server_crashes",
    "run_captured",
    "server_crash_burst",
]
