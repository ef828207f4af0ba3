"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch library failures without catching unrelated Python
errors.  Each subclass corresponds to one subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A protocol or simulation was configured with invalid parameters.

    Examples: a fast crash-model register with ``R >= S/t - 2``, a latency
    model with a negative delay, or a cluster with zero servers.
    """


class SimulationError(ReproError):
    """The simulation kernel reached an inconsistent state.

    This indicates a bug in a protocol automaton or in a schedule, such as
    delivering a message to a process that never existed.
    """


class EventBudgetExceeded(SimulationError, RuntimeError):
    """A simulation spent its event budget with work still queued (still
    a :class:`RuntimeError` for callers that caught it by that name)."""


class ScheduleError(SimulationError):
    """A scripted schedule asked for an impossible delivery.

    Raised by the scripted controller when, for instance, a step requests
    delivery of a message that is not in transit, or asks a crashed
    process to take a step.
    """


class ProtocolError(ReproError):
    """A protocol automaton received a message it cannot interpret."""


class SpecificationError(ReproError):
    """A history is malformed with respect to the checked specification.

    Raised by checkers when the *input* is ill-formed (for example, two
    concurrent operations by the same process), as opposed to a property
    violation, which is reported as a :class:`~repro.spec.histories.Verdict`.
    """


class SearchBudgetExceeded(SpecificationError):
    """A history needed more search states than the checker's budget.

    The linearizability search raises this rather than return a verdict
    it did not finish computing.
    """


class SignatureError(ReproError):
    """A signature operation was invoked with an unknown signer."""


class InfeasibleConstructionError(ReproError):
    """A lower-bound construction was requested in a regime where it
    does not apply.

    The constructions of Sections 5, 6.2 and 7 of the paper require the
    resilience thresholds to be *violated* (for instance ``R >= S/t - 2``
    in the crash model); asking for the construction inside the feasible
    region raises this error.
    """
