"""Adaptive quality degradation under load (the BAT layout's free knob).

The multiresolution layout makes response size a smooth function of the
quality parameter, so a loaded server has a graceful alternative to
queueing or rejection: serve *coarser* data now and let clients refine
when load drains. :class:`DegradationPolicy` turns the scheduler's load
factor — ``(queued + in_flight) / capacity`` — into a quality ceiling:

- load ``<= engage_at``: no ceiling (cap 1.0, full quality);
- load above ``engage_at``: the cap ramps linearly down, reaching
  ``min_quality`` at ``full_load`` — deeper backlog, coarser responses;
- hysteresis: once engaged, the cap only returns to 1.0 after load falls
  to ``release_at`` (< ``engage_at``), so a server hovering at the
  threshold does not flap between full and degraded service.

Correctness contract: degradation only lowers the quality *ceiling*; it
never rewrites what was already delivered. A degraded session later
refining to full quality receives exactly the increments a never-degraded
progressive session would — the convergence property tests in
``tests/test_serve.py`` pin this.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["DegradationConfig", "DegradationPolicy"]


@dataclass(frozen=True)
class DegradationConfig:
    """Tuning knobs for the load → quality-ceiling mapping."""

    #: load factor at/below which full quality is always served
    engage_at: float = 1.0
    #: load factor at which the ceiling bottoms out at ``min_quality``
    full_load: float = 3.0
    #: load factor the server must drain to before restoring full quality
    release_at: float = 0.5
    #: the coarsest quality the policy will ever serve
    min_quality: float = 0.25
    #: master switch (the viz wrapper disables degradation by default)
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.min_quality <= 1.0:
            raise ValueError("min_quality must be in (0, 1]")
        if self.release_at > self.engage_at:
            raise ValueError("release_at must be <= engage_at (hysteresis)")
        if self.full_load <= self.engage_at:
            raise ValueError("full_load must be > engage_at")


class DegradationPolicy:
    """Thread-safe load-tracking quality ceiling with hysteresis."""

    def __init__(self, config: DegradationConfig | None = None):
        self.config = config or DegradationConfig()
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

    def _cap_for_load(self, load: float) -> float:
        cfg = self.config
        if load <= cfg.engage_at:
            return 1.0
        span = cfg.full_load - cfg.engage_at
        frac = min((load - cfg.engage_at) / span, 1.0)
        return 1.0 - frac * (1.0 - cfg.min_quality)

    def _next(self, load_factor: float) -> tuple[float, bool]:
        """``(cap, engaged)`` after one load sample (lock held)."""
        cap = self._cap_for_load(load_factor)
        if cap < 1.0:
            return cap, True
        if self._engaged and load_factor > self.config.release_at:
            # engaged: require the drain watermark before restoring, and
            # hold the last degraded cap until then (no flapping)
            return self._cap, True
        return 1.0, False

    def observe(self, load_factor: float) -> float:
        """Update the ceiling from a fresh load sample; returns the cap."""
        if not self.config.enabled:
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
        if not self.config.enabled:
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
                "enabled": self.config.enabled,
                "cap": self._cap,
                "engaged": self._engaged,
                "engagements": self.engagements,
                "releases": self.releases,
                "downgrades": self.downgrades,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return f"DegradationPolicy(cap={s['cap']:.2f}, engaged={s['engaged']})"
