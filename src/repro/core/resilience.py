"""Control-plane resilience primitives: retries and circuit breakers.

The actuator's hypervisor verbs are perfect on a clean run, but under
the infrastructure chaos layer (:mod:`repro.chaos`) they can be
rejected outright, lose their completion, or finish far later than the
toolstack's nominal latency.  This module holds the two defensive
mechanisms the :class:`~repro.core.actuation.PreventionActuator` wraps
its verbs in when chaos is enabled:

* :class:`RetryPolicy` — bounded exponential backoff with jitter drawn
  from a *seeded* RNG (so retried runs stay byte-reproducible) and a
  per-verb completion deadline that turns a silently-lost verb into a
  detectable timeout;
* :class:`EscalatingBreaker` — a per-VM circuit breaker that counts
  verb failures and escalates scale → migrate → suppress: after
  ``failure_threshold`` scale failures the breaker bans scaling (the
  actuator falls through to migration); after the same number of
  migrate failures it opens fully and suppresses all prevention for
  the VM until a cooldown elapses, then allows one half-open probe.

Everything here is deterministic given the seed: no wall clocks, no
global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RetryPolicy",
    "BreakerPolicy",
    "ResiliencePolicy",
    "EscalatingBreaker",
    "BREAKER_CLOSED",
    "BREAKER_SCALE_OPEN",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: Breaker-state gauge values (exported per VM through the obs layer).
BREAKER_CLOSED = 0
BREAKER_SCALE_OPEN = 1
BREAKER_OPEN = 2
BREAKER_HALF_OPEN = 3

_STATE_NAMES = {
    BREAKER_CLOSED: "closed",
    BREAKER_SCALE_OPEN: "scale_open",
    BREAKER_OPEN: "open",
    BREAKER_HALF_OPEN: "half_open",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff + jitter for hypervisor verbs.

    ``delay(attempt, rng)`` yields the wait before attempt
    ``attempt + 1`` (attempts count from 1): ``base_delay *
    multiplier**(attempt-1)`` capped at ``max_delay``, then spread by a
    symmetric ``±jitter`` fraction drawn from the caller's seeded RNG —
    jitter decorrelates retry storms without sacrificing determinism.
    ``verb_timeout`` is the per-attempt completion deadline: a verb
    that has not called back within it is declared lost and retried.
    """

    max_attempts: int = 3
    base_delay: float = 2.0
    multiplier: float = 2.0
    max_delay: float = 20.0
    jitter: float = 0.5
    verb_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 < base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.verb_timeout <= 0:
            raise ValueError(f"verb_timeout must be > 0, got {self.verb_timeout}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt counts from 1, got {attempt}")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter == 0.0:
            return raw
        spread = self.jitter * (2.0 * float(rng.random()) - 1.0)
        return raw * (1.0 + spread)


@dataclass(frozen=True)
class BreakerPolicy:
    """Tunables of the per-VM :class:`EscalatingBreaker`."""

    #: Verb failures (attempt-level, consecutive) before that verb trips.
    failure_threshold: int = 3
    #: Seconds a fully-open breaker suppresses prevention before the
    #: half-open probe is allowed.
    cooldown: float = 120.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown <= 0:
            raise ValueError(f"cooldown must be > 0, got {self.cooldown}")


@dataclass(frozen=True)
class ResiliencePolicy:
    """The actuator's full defensive configuration (retry + breaker +
    the seed its jitter RNG derives from)."""

    retry: RetryPolicy = RetryPolicy()
    breaker: BreakerPolicy = BreakerPolicy()
    seed: int = 0

    @classmethod
    def from_dict(cls, payload) -> "ResiliencePolicy":
        payload = dict(payload or {})
        retry = dict(payload.pop("retry", {}))
        breaker = dict(payload.pop("breaker", {}))
        seed = int(payload.pop("seed", 0))
        if payload:
            raise ValueError(f"unknown resilience keys: {sorted(payload)}")
        return cls(
            retry=RetryPolicy(**retry),
            breaker=BreakerPolicy(**breaker),
            seed=seed,
        )


class EscalatingBreaker:
    """Per-VM circuit breaker with scale → migrate → suppress escalation.

    State machine:

    * **closed** — everything allowed.  ``failure_threshold``
      consecutive *scale* failures ban scaling (``scale_open``);
    * **scale_open** — the actuator skips straight to migration for
      this VM.  A scale success (e.g. a retry that lands) closes the
      breaker again; ``failure_threshold`` migrate failures open it;
    * **open** — all prevention for the VM is suppressed until
      ``cooldown`` elapses;
    * **half_open** — after the cooldown one prevention attempt probes
      the control plane: success fully resets the breaker, any failure
      re-opens it for another cooldown.

    Failure counts are per-verb and consecutive — a success resets its
    verb's count, so one flaky call does not creep toward a trip.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self._failures: Dict[str, int] = {"scale": 0, "migrate": 0}
        self._scale_banned = False
        self._open_until: Optional[float] = None
        self._half_open = False
        #: Trips by level, for telemetry ("scale" bans + full "open"s).
        self.trips: Dict[str, int] = {"scale": 0, "open": 0}

    # -- queries -------------------------------------------------------
    def suppressed(self, now: float) -> bool:
        """True while fully open; entering the cooldown's end flips the
        breaker half-open (and returns False — the probe is allowed)."""
        if self._open_until is None:
            return False
        if now < self._open_until:
            return True
        self._open_until = None
        self._half_open = True
        return False

    def allows_scale(self, now: float) -> bool:
        """False when scaling is banned (escalate to migration)."""
        return not self._scale_banned

    def state(self, now: float) -> int:
        if self._open_until is not None and now < self._open_until:
            return BREAKER_OPEN
        if self._half_open or self._open_until is not None:
            return BREAKER_HALF_OPEN
        if self._scale_banned:
            return BREAKER_SCALE_OPEN
        return BREAKER_CLOSED

    def state_name(self, now: float) -> str:
        return _STATE_NAMES[self.state(now)]

    # -- transitions ---------------------------------------------------
    def record_failure(self, verb: str, now: float) -> Optional[str]:
        """Count one failed verb attempt.  Returns the trip level
        ("scale" or "open") when this failure trips the breaker."""
        if self._half_open:
            # The probe failed: straight back to fully open.
            self._half_open = False
            self._open_until = now + self.policy.cooldown
            self.trips["open"] += 1
            return "open"
        count = self._failures.get(verb, 0) + 1
        self._failures[verb] = count
        if count < self.policy.failure_threshold:
            return None
        self._failures[verb] = 0
        if verb == "scale" and not self._scale_banned:
            self._scale_banned = True
            self.trips["scale"] += 1
            return "scale"
        if verb == "migrate":
            self._open_until = now + self.policy.cooldown
            self.trips["open"] += 1
            return "open"
        return None

    def record_success(self, verb: str, now: float) -> None:
        """A verb completed: reset its count; a half-open probe success
        (or any scale success) fully closes the breaker."""
        self._failures[verb] = 0
        if self._half_open:
            self._half_open = False
            self._failures = {"scale": 0, "migrate": 0}
            self._scale_banned = False
            return
        if verb == "scale":
            self._scale_banned = False
