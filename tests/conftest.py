"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis import lockcheck
from repro.core import HostContext, ManualClock, QueueView

# Lock-order checking for the whole suite: a no-op unless REPRO_LOCKCHECK
# is set in the environment (CI sets it on the chaos/differential jobs).
pytest_plugins = ("repro.analysis.pytest_plugin",)


@pytest.fixture
def lock_registry():
    """The lock-order checker's registry, installed for this test alone
    unless the whole suite already runs under it (``REPRO_LOCKCHECK=1``)."""
    suite_wide = lockcheck.current_registry() is not None
    registry = lockcheck.install()
    yield registry
    if not suite_wide:
        lockcheck.uninstall()


@pytest.fixture
def clock() -> ManualClock:
    """A manual clock starting at t = 0."""
    return ManualClock()


@pytest.fixture
def queue_view() -> QueueView:
    return QueueView()


@pytest.fixture
def ctx(clock: ManualClock, queue_view: QueueView) -> HostContext:
    """A host context with P = 4 engine processes."""
    return HostContext(clock=clock, queue=queue_view, parallelism=4)


def make_ctx(clock=None, parallelism: int = 4) -> HostContext:
    """Non-fixture helper for tests that need several contexts."""
    return HostContext(clock=clock or ManualClock(), queue=QueueView(),
                       parallelism=parallelism)
