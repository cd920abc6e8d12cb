"""One name -> entry table for every pluggable layer of the stack.

Solver backends (:data:`repro.numerics.backends.BACKENDS`), prediction
models (:data:`repro.models.registry.MODELS`), execution backends
(:data:`repro.service.execution.EXECUTORS`) and daemon transports
(:data:`repro.service.transport.TRANSPORTS`) are each one
:class:`Registry` instance, so every layer registers, replaces, removes
and rejects names the same way: a duplicate needs ``overwrite=True``, and
an unknown name raises :class:`~repro.core.errors.UnknownNameError`
listing what is registered.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.core.errors import UnknownNameError

T = TypeVar("T")


class Registry(Generic[T]):
    """Named entries of one ``kind`` (``"model"``, ``"executor"``, ...).

    ``kind`` only words the errors: ``unknown model 'x'; registered
    models: [...]``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: "dict[str, T]" = {}

    def register(self, name: str, entry: T, overwrite: bool = False) -> None:
        """Add ``entry`` under ``name``; replacing one needs ``overwrite=True``.

        The guard keeps a typo or a double import from silently shadowing a
        built-in.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"a {self.kind} needs a non-empty string name, got {name!r}")
        if name in self._entries and not overwrite:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; pass "
                f"overwrite=True to replace it"
            )
        self._entries[name] = entry

    def unregister(self, name: str) -> None:
        """Remove ``name``; an unknown name raises :class:`UnknownNameError`."""
        self.get(name)
        del self._entries[name]

    def get(self, name: str) -> T:
        """The entry registered under ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def names(self) -> "tuple[str, ...]":
        """Every registered name, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        return name in self._entries
