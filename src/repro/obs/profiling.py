"""On-demand cProfile capture around live engine executions.

``cProfile.Profile.enable()`` instruments *the calling thread only*, so
"profile the serving loop" cannot be a process-wide switch: engine
executions run on the event loop, on shard executor threads, and on
the stdio shell's thread.  :class:`OnDemandProfiler` therefore hooks the
one chokepoint they all share — :meth:`QueryEngine._execute` —
and *arms* for a bounded window:

* :meth:`capture` arms a fresh profile, sleeps for the window, then
  disarms and formats the pstats top table.  One capture at a time —
  a concurrent request raises :class:`ProfileBusyError` (HTTP 409 at
  the ``/profile`` endpoint) rather than corrupting the stats.
* While armed, each engine call *tries* to take the single profile
  slot: exactly one concurrent execution is profiled at a time (the
  cProfile C machinery is not re-entrant across threads), the rest run
  unprofiled at full speed.  Disarming waits for the in-flight profiled
  call, so the stats are never read mid-update.
* The unarmed hot path costs one attribute load and an ``is None``
  check — nothing measurable against the <5% observability budget.

``seconds`` is clamped to :attr:`OnDemandProfiler.MAX_SECONDS` so a
fat-fingered ``/profile?seconds=86400`` cannot pin the capture slot for
a day.
"""

from __future__ import annotations

import cProfile
import io
import math
import pstats
import threading
import time
from typing import Any, Callable

__all__ = ["OnDemandProfiler", "ProfileBusyError"]


class ProfileBusyError(RuntimeError):
    """A profile capture is already running (one at a time)."""


class OnDemandProfiler:
    """Windowed cProfile capture over a live engine's execute path."""

    #: Hard cap on one capture window, seconds.
    MAX_SECONDS = 30.0

    def __init__(self) -> None:
        self._capture_lock = threading.Lock()  # one capture at a time
        self._call_lock = threading.Lock()  # one profiled call at a time
        self._profile: Any = None  # armed cProfile.Profile, else None
        self._calls = 0

    @property
    def armed(self) -> bool:
        """True while a capture window is open."""
        return self._profile is not None

    # ------------------------------------------------------------------
    def profile_call(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` under the armed profile if the slot is free.

        Never blocks and never fails the call: when unarmed, or when
        another thread already holds the profile slot, ``fn`` simply
        runs unprofiled.
        """
        profile = self._profile
        if profile is None or not self._call_lock.acquire(blocking=False):
            return fn(*args, **kwargs)
        try:
            # Re-check under the slot lock: capture() may have disarmed
            # (and begun reading stats) between the peek and the acquire.
            if self._profile is not profile:
                return fn(*args, **kwargs)
            self._calls += 1
            profile.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.disable()
        finally:
            self._call_lock.release()

    # ------------------------------------------------------------------
    def capture(self, seconds: float, top: int = 25) -> str:
        """Arm for ``seconds``, then return the pstats top-``top`` table.

        Raises :class:`ProfileBusyError` when a capture is already in
        progress and :class:`ValueError` for a window that is not a
        positive finite number.
        """
        seconds = float(seconds)
        if not (math.isfinite(seconds) and seconds > 0):
            raise ValueError(
                f"profile seconds must be a positive finite number, "
                f"got {seconds!r}"
            )
        seconds = min(seconds, self.MAX_SECONDS)
        top = max(1, int(top))
        if not self._capture_lock.acquire(blocking=False):
            raise ProfileBusyError(
                "a profile capture is already running (one at a time)"
            )
        try:
            profile = cProfile.Profile()
            self._calls = 0
            self._profile = profile
            try:
                time.sleep(seconds)
            finally:
                self._profile = None
            # An engine call that won the slot before disarm may still
            # be mid-flight with the profile enabled; taking the slot
            # lock once is the barrier that lets it finish.
            with self._call_lock:
                calls = self._calls
            return self._format(profile, seconds, calls, top)
        finally:
            self._profile = None
            self._capture_lock.release()

    @staticmethod
    def _format(
        profile: "cProfile.Profile", seconds: float, calls: int, top: int
    ) -> str:
        buffer = io.StringIO()
        buffer.write(
            f"profile: {seconds:g}s window, {calls} engine "
            f"call{'s' if calls != 1 else ''} profiled\n"
        )
        if calls == 0:
            buffer.write(
                "(no queries arrived during the window — issue queries "
                "while the capture runs)\n"
            )
            return buffer.getvalue()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        return buffer.getvalue()
