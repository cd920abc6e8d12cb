"""Shared typed errors for the prediction stack.

Each failure mode has one exception type, whichever model, backend or
transport raised it:

* :class:`NotFittedError` -- ``predict`` / ``evaluate`` was called before
  ``fit``.  Subclasses :class:`RuntimeError`.
* :class:`UnknownNameError` -- a name is not in one of the
  :class:`~repro.core.registry.Registry` instances (solver backends,
  models, executors, transports).  Subclasses :class:`KeyError` (it is a
  failed lookup) and carries the registry's kind and registered names.
* :class:`AddressInUseError` -- a daemon listener found another *live*
  daemon already bound to its address (e.g. a Unix socket that answers a
  connect probe).  Subclasses :class:`OSError` like the ``EADDRINUSE`` it
  generalises.
* :class:`DaemonConnectionError` -- the daemon hung up mid-stream (died
  between a request and its response, or mid-way through streaming a
  job's events).  Subclasses :class:`ConnectionError`; ``repro submit``
  maps it to exit code 3 (partial failure) because earlier events of the
  stream may already have been consumed.
* :class:`LineTooLongError` -- a JSON line exceeded the transport's line
  limit.  The reader skipped the line and the connection stays usable.
  Subclasses :class:`ValueError`, which is what asyncio raises for an
  over-long line.
* :class:`QuotaExceededError` -- a client exceeded its
  :class:`~repro.service.session.ClientQuota`; carries the structured
  payload the daemon attaches to the rejecting ``error`` event.
"""

from __future__ import annotations


class NotFittedError(RuntimeError):
    """An estimator was asked to predict or evaluate before being fitted."""

    @classmethod
    def for_model(cls, what: str = "the model") -> "NotFittedError":
        """The standard message every model raises through the protocol."""
        return cls(f"{what} has not been fitted yet; call fit() first")


class UnknownNameError(KeyError):
    """A name is not registered in a :class:`~repro.core.registry.Registry`.

    Attributes
    ----------
    kind:
        What the registry holds (``"model"``, ``"executor"``, ...).
    name:
        The unknown name that was looked up.
    available:
        The names that *are* registered at lookup time.
    """

    def __init__(self, kind: str, name: str, available: "tuple[str, ...]") -> None:
        self.kind = kind
        self.name = name
        self.available = tuple(available)
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"unknown {self.kind} {self.name!r}; registered {self.kind}s: "
            f"{sorted(self.available)}"
        )


class AddressInUseError(OSError):
    """A daemon listener's address is held by another *live* daemon.

    Raised by the Unix-socket listener when the socket file at its path
    answers a connect probe (a stale file from a crashed daemon fails the
    probe and is reclaimed instead), and by analogy wherever a transport
    can distinguish live from stale occupancy.
    """


class DaemonConnectionError(ConnectionError):
    """The daemon connection died mid-stream.

    Raised by :meth:`~repro.service.daemon.DaemonClient` when the daemon
    hung up between a request and its response, or part-way through an
    event stream -- as opposed to a connect-time failure (plain
    :class:`OSError`/:class:`ConnectionError`) where no request was ever
    accepted.  ``repro submit`` maps it to exit code 3: events already
    streamed may have been consumed, so the failure is partial, not total.
    """


class LineTooLongError(ValueError):
    """A JSON line was longer than the transport's line limit.

    Raised by :func:`~repro.service.transport.read_line` after it has read
    past the rest of the line, so the next read returns the next line: the
    message is lost, the connection is not.
    """


class QuotaExceededError(RuntimeError):
    """A client exceeded its per-client daemon quota.

    Attributes
    ----------
    kind:
        Which limit tripped: ``"jobs"`` (in-flight jobs per client) or
        ``"stories"`` (queued + running stories per client).
    limit:
        The configured bound.
    in_flight:
        The client's current usage when the request arrived.
    requested:
        How much the rejected request asked for (1 for a job, the story
        count for stories).
    """

    def __init__(self, kind: str, limit: int, in_flight: int, requested: int) -> None:
        self.kind = kind
        self.limit = limit
        self.in_flight = in_flight
        self.requested = requested
        super().__init__(
            f"client quota exceeded: {in_flight} {kind} in flight + "
            f"{requested} requested > limit {limit}"
        )

    def payload(self) -> "dict[str, object]":
        """The structured fields the daemon attaches to the error event."""
        return {
            "error_type": "quota_exceeded",
            "quota": {
                "kind": self.kind,
                "limit": self.limit,
                "in_flight": self.in_flight,
                "requested": self.requested,
            },
        }
