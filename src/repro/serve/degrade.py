"""Adaptive quality degradation under load (the BAT layout's free knob).

The multiresolution layout makes response size a smooth function of the
quality parameter, so a loaded server has a graceful alternative to
queueing or rejection: serve *coarser* data now and let clients refine
when load drains. :class:`DegradationPolicy` turns the scheduler's load
factor — ``(queued + in_flight) / capacity`` — into a quality ceiling:

- load ``<= ENGAGE_AT``: no ceiling (cap 1.0, full quality);
- load above ``ENGAGE_AT``: the cap ramps linearly down, reaching
  ``MIN_QUALITY`` at ``FULL_LOAD`` — deeper backlog, coarser responses;
- hysteresis: once engaged, the cap only returns to 1.0 after load falls
  to ``RELEASE_AT`` (< ``ENGAGE_AT``), so a server hovering at the
  threshold does not flap between full and degraded service.

The ramp is the module constants below; callers only switch the policy
off (``repro serve --no-degradation``, the batch-job runner).

Correctness contract: degradation only lowers the quality *ceiling*; it
never rewrites what was already delivered. A degraded session later
refining to full quality receives exactly the increments a never-degraded
progressive session would — the convergence property tests in
``tests/test_serve.py`` pin this.
"""

from __future__ import annotations

import threading

__all__ = ["DegradationPolicy"]

#: load factor at/below which full quality is always served
ENGAGE_AT = 1.0
#: load factor at which the ceiling bottoms out at :data:`MIN_QUALITY`
FULL_LOAD = 3.0
#: load factor the server must drain to before restoring full quality
RELEASE_AT = 0.5
#: the coarsest quality the policy will ever serve
MIN_QUALITY = 0.25


class DegradationPolicy:
    """Thread-safe load-tracking quality ceiling with hysteresis."""

    def __init__(self, enabled: bool = True):
        #: off, the ceiling is always 1.0 and nothing is counted
        self.enabled = enabled
        self._lock = threading.Lock()
        self._cap = 1.0
        self._engaged = False
        self.engagements = 0
        self.releases = 0
        self.downgrades = 0

    @property
    def cap(self) -> float:
        with self._lock:
            return self._cap

    @property
    def engaged(self) -> bool:
        with self._lock:
            return self._engaged

    @staticmethod
    def _cap_for_load(load: float) -> float:
        if load <= ENGAGE_AT:
            return 1.0
        frac = min((load - ENGAGE_AT) / (FULL_LOAD - ENGAGE_AT), 1.0)
        return 1.0 - frac * (1.0 - MIN_QUALITY)

    def _next(self, load_factor: float) -> tuple[float, bool]:
        """``(cap, engaged)`` after one load sample (lock held)."""
        cap = self._cap_for_load(load_factor)
        if cap < 1.0:
            return cap, True
        if self._engaged and load_factor > RELEASE_AT:
            # engaged: require the drain watermark before restoring, and
            # hold the last degraded cap until then (no flapping)
            return self._cap, True
        return 1.0, False

    def observe(self, load_factor: float) -> float:
        """Update the ceiling from a fresh load sample; returns the cap."""
        if not self.enabled:
            return 1.0
        with self._lock:
            cap, engaged = self._next(load_factor)
            if engaged and not self._engaged:
                self.engagements += 1
            elif self._engaged and not engaged:
                self.releases += 1
            self._cap, self._engaged = cap, engaged
            return cap

    def ceiling(self, load_factor: float) -> float:
        """The cap :meth:`observe` would return for this sample, changing
        nothing (the service resolves a cached window with it before
        deciding where the window runs, so the two must agree)."""
        if not self.enabled:
            return 1.0
        with self._lock:
            return self._next(load_factor)[0]

    def apply(self, requested_quality: float, cap: float | None = None) -> tuple[float, bool]:
        """Clamp one request to ``cap``, by default the current ceiling.

        Returns ``(effective_quality, degraded)`` and counts the downgrade
        when the clamp actually lowered the request.
        """
        with self._lock:
            effective = min(requested_quality, self._cap if cap is None else cap)
            degraded = effective < requested_quality
            if degraded:
                self.downgrades += 1
            return effective, degraded

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "cap": self._cap,
                "engaged": self._engaged,
                "engagements": self.engagements,
                "releases": self.releases,
                "downgrades": self.downgrades,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return f"DegradationPolicy(cap={s['cap']:.2f}, engaged={s['engaged']})"
