"""The one registry contract, checked on every registry instance.

Solver backends, models, executors and transports are all
:class:`~repro.core.registry.Registry` instances, so each must reject
duplicates and empty names, replace only with ``overwrite=True``, round-trip
register/unregister, and fail unknown names with the same
:class:`~repro.core.errors.UnknownNameError`.
"""

import pytest

from repro.core.errors import UnknownNameError
from repro.core.registry import Registry
from repro.models import MODELS, PerDistanceLogisticModel, SISModel
from repro.numerics.backends import BACKENDS, InternalBackend, ScipyBackend
from repro.service.execution import (
    EXECUTORS,
    ProcessExecutionBackend,
    ThreadExecutionBackend,
)
from repro.service.transport import TRANSPORTS, TcpListener, TransportSpec, UnixListener

# (registry, kind, a built-in name, two distinct entries it could hold)
CASES = {
    "backends": (BACKENDS, "backend", "internal", InternalBackend, ScipyBackend),
    "models": (MODELS, "model", "dl", PerDistanceLogisticModel, SISModel),
    "executors": (
        EXECUTORS,
        "executor",
        "thread",
        ThreadExecutionBackend,
        ProcessExecutionBackend,
    ),
    "transports": (
        TRANSPORTS,
        "transport",
        "unix",
        TransportSpec(description="test transport a", listener=UnixListener),
        TransportSpec(description="test transport b", listener=TcpListener),
    ),
}

TEMP = "registry-contract-test"


@pytest.fixture(params=sorted(CASES))
def case(request):
    registry = CASES[request.param][0]
    yield CASES[request.param]
    if TEMP in registry:
        registry.unregister(TEMP)


def test_duplicate_rejected(case):
    registry, _, builtin, entry, _ = case
    before = registry.get(builtin)
    with pytest.raises(ValueError, match="already registered"):
        registry.register(builtin, entry)
    assert registry.get(builtin) is before


def test_overwrite_replaces_the_entry(case):
    registry, _, _, first, second = case
    registry.register(TEMP, first)
    registry.register(TEMP, second, overwrite=True)
    assert registry.get(TEMP) is second


def test_register_unregister_round_trip(case):
    registry, _, _, entry, _ = case
    registry.register(TEMP, entry)
    assert TEMP in registry and TEMP in registry.names()
    assert registry.get(TEMP) is entry
    registry.unregister(TEMP)
    assert TEMP not in registry and TEMP not in registry.names()


def test_unregister_unknown_raises(case):
    registry = case[0]
    with pytest.raises(UnknownNameError):
        registry.unregister("frobnicate")


def test_unknown_get_names_the_unknown_and_the_registered(case):
    registry, kind, _, _, _ = case
    with pytest.raises(UnknownNameError) as excinfo:
        registry.get("frobnicate")
    error = excinfo.value
    # A failed lookup is a KeyError, so dict-style handling works too.
    assert isinstance(error, KeyError)
    assert (error.kind, error.name) == (kind, "frobnicate")
    assert error.available == registry.names()
    message = str(error)
    assert message.startswith(f"unknown {kind} 'frobnicate'; registered {kind}s: [")
    for name in registry.names():
        assert repr(name) in message


@pytest.mark.parametrize("name", ["", None, 3])
def test_empty_or_non_string_name_rejected(case, name):
    registry, _, _, entry, _ = case
    with pytest.raises(ValueError, match="non-empty string name"):
        registry.register(name, entry)


def test_names_are_sorted():
    registry: Registry[int] = Registry("widget")
    for name in ("b", "c", "a"):
        registry.register(name, 0)
    assert registry.names() == ("a", "b", "c")
