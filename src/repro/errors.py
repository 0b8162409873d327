"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Narrow subclasses exist for the situations a user is likely to
handle differently.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ReproError):
    """An array had an incompatible shape for the requested operation."""


class GradientError(ReproError):
    """Backward was invoked in an invalid state (e.g. on a non-scalar)."""


class NotFittedError(ReproError):
    """A model was used before being trained/fitted."""


class SchemaError(ReproError):
    """A table, column, or query referenced the schema inconsistently."""


class QueryError(ReproError):
    """A query or predicate was malformed."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ServeError(ReproError):
    """The estimation service could not satisfy a request."""


class UnknownModelError(ServeError):
    """A request named a model the service has not registered."""


class EstimateTimeoutError(ServeError):
    """A served estimate missed its deadline (fallback may apply)."""


class OverloadError(ServeError):
    """Admission control shed the request (queue depth bound exceeded)."""


class WorkerCrashError(ServeError):
    """A cluster worker process died while holding the request."""


class CompileError(ReproError):
    """A model could not be compiled for the runtime executors."""
