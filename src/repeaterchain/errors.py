"""Exception hierarchy shared by the model, planner, Monte Carlo, and CLI layers.

The split matters for the CLI exit codes: configuration problems map to
exit 2, model-level failures (diverging or unreachable configurations)
to exit 3, and simulation aborts to exit 4.  Exit 5, a report the CLI
cannot write to stdout, comes from the operating system, not from here.
"""


class ConfigError(ValueError):
    """A parameter, flag, or config-file entry is malformed or out of range."""


class ModelError(RuntimeError):
    """Base class for failures of the analytical model itself."""


class NonTerminatingProcess(ModelError):
    """Entanglement creation has zero success probability; waiting times diverge."""


class UnreachableConfiguration(ModelError):
    """The end-to-end success probability underflows to zero."""


class BeyondRepresentable(ModelError):
    """A requested quantity overflows double precision, or a total time
    underflows to zero."""


class NoCrossoverInRange(ModelError):
    """Repeater and direct-transmission curves do not cross inside the bracket."""


class SimulationAbort(RuntimeError):
    """The sampler gave up: a success needs more rounds than its guard
    allows, or the per-trial arrays do not fit in memory."""
