"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with a value.  Processes wait on
events by ``yield``-ing them; arbitrary callbacks may also subscribe.  The
composite events :class:`AllOf` and :class:`AnyOf` wait for conjunctions and
disjunctions of other events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.sim.errors import EventAlreadyFired

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulator

# Sentinel for "no value yet": distinguishes a pending event from one that
# fired with value ``None``.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for.

    Events move through three states: *pending* (just created), *triggered*
    (scheduled to fire at the current simulation instant) and *processed*
    (callbacks have run).  ``succeed``/``fail`` trigger the event; waiting
    processes resume with the event's value, or have the failure exception
    thrown into them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: object = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyFired(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventAlreadyFired(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    ``at``, when given, is the exact queued time and ``delay`` must be
    ``at - now`` (see :meth:`repro.sim.kernel.Simulator.timeout_at`).

    Timeouts are the kernel's highest-churn allocation (every process
    wait creates one), so :meth:`repro.sim.kernel.Simulator.timeout`
    recycles processed instances through a free list via :meth:`_reinit`
    instead of constructing fresh objects.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None,
                 at: Optional[float] = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        if at is None:
            sim._schedule(self, delay=delay)
        else:
            sim._schedule_at(self, at)

    def _reinit(self, delay: float, value: object) -> None:
        """Reset a recycled instance to freshly-constructed state.

        Kernel internal: only the free-list pool of the owning simulator
        may call this, and only on instances it has proven unreferenced
        (see :meth:`repro.sim.kernel.Simulator.step`).  The caller
        schedules the event.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._defused = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Timeout delay={self.delay}>"


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        self._count = 0
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("events belong to different simulators")
        # Subscribe after validation so a bad mix never half-subscribes.
        for event in self.events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self.events and not self.triggered:
            self._finish()

    def _finish(self) -> None:
        if not self.triggered:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, object]:
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    Its value is a dict mapping each event to its value.  If any constituent
    fails, the condition fails with that exception.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)  # type: ignore[arg-type]
            return
        self._count += 1
        if self._count == len(self.events):
            self._finish()


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires (or fails)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)  # type: ignore[arg-type]
            return
        self._finish()
