"""Arrival processes: when each request enters the system.

Open-loop generators precompute the full arrival timestamp vector for a
trace (deterministic given the spec's seed), which keeps the event heap
small and makes the offered load independent of how fast the server
drains — the defining property of open-loop load, and the regime where
tail latency explodes near saturation.  The closed-loop mode has no
precomputed times; :func:`repro.serving.service.serve` issues each
client's next request only after its previous one completes plus an
exponential think time, so offered load self-limits at
``clients / (think + sojourn)``.

All randomness flows through :func:`numpy.random.default_rng` seeded
from the spec — no global RNG state, no wall clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalSpec",
    "poisson_arrivals",
    "mmpp_arrivals",
    "constant_arrivals",
    "generate_arrivals",
]

#: Open-loop process names (closed-loop is driven by the server loop).
OPEN_LOOP = ("poisson", "mmpp", "constant")


def require_finite(owner: str, **values: Optional[float]) -> None:
    """Reject a NaN or infinite config value, naming its field.

    ``None`` values (unset optional knobs) pass.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{owner}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class ArrivalSpec:
    """A reproducible description of the arrival process.

    Attributes
    ----------
    process:
        ``"poisson"`` (open-loop, exponential interarrivals at
        ``rate``), ``"mmpp"`` (on-off Markov-modulated Poisson:
        exponential dwell in an ON state at ``rate_on`` and an OFF
        state at ``rate_off``), ``"constant"`` (evenly spaced — useful
        for deterministic tests), or ``"closed"`` (``clients``
        closed-loop clients with exponential ``think`` time).
    rate:
        Mean offered request rate for the open-loop processes
        (requests per simulated time unit).
    seed:
        Seeds interarrival sampling (and think times in closed loop).
    rate_on / rate_off / mean_on / mean_off:
        MMPP knobs.  Defaults derive a bursty process with the same
        average ``rate``: ON bursts at ``2 * rate``, OFF silent, equal
        mean dwells — so MMPP and Poisson runs at the same ``rate``
        compare like for like.
    clients / think:
        Closed-loop population size and mean think time.
    """

    process: str = "poisson"
    rate: float = 0.01
    seed: int = 0
    rate_on: Optional[float] = None
    rate_off: Optional[float] = None
    mean_on: float = 1000.0
    mean_off: float = 1000.0
    clients: int = 1
    think: float = 0.0

    def __post_init__(self) -> None:
        require_finite(
            "ArrivalSpec",
            rate=self.rate,
            rate_on=self.rate_on,
            rate_off=self.rate_off,
            mean_on=self.mean_on,
            mean_off=self.mean_off,
            think=self.think,
        )
        if self.process not in OPEN_LOOP + ("closed",):
            raise ConfigurationError(
                f"unknown arrival process {self.process!r}; known: "
                f"{', '.join(OPEN_LOOP + ('closed',))}"
            )
        if self.process in OPEN_LOOP and self.rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {self.rate}")
        if self.process == "mmpp" and (self.mean_on <= 0 or self.mean_off <= 0):
            raise ConfigurationError("mmpp dwell times must be > 0")
        # A silent ON state would stall the MMPP sampler forever.
        if self.rate_on is not None and self.rate_on <= 0:
            raise ConfigurationError(f"rate_on must be > 0, got {self.rate_on}")
        if self.rate_off is not None and self.rate_off < 0:
            raise ConfigurationError(f"rate_off must be >= 0, got {self.rate_off}")
        if self.process == "closed":
            if self.clients < 1:
                raise ConfigurationError(
                    f"closed loop needs >= 1 client, got {self.clients}"
                )
            if self.think < 0:
                raise ConfigurationError(f"think time must be >= 0, got {self.think}")

    @property
    def open_loop(self) -> bool:
        return self.process in OPEN_LOOP

    def as_dict(self) -> Dict[str, Any]:
        """JSON-scalar form (content-addressed by the campaign layer)."""
        out: Dict[str, Any] = {"process": self.process, "seed": self.seed}
        if self.process in OPEN_LOOP:
            out["rate"] = self.rate
        if self.process == "mmpp":
            out.update(
                rate_on=self.rate_on,
                rate_off=self.rate_off,
                mean_on=self.mean_on,
                mean_off=self.mean_off,
            )
        if self.process == "closed":
            out.update(clients=self.clients, think=self.think)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrivalSpec":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown arrival spec fields: {sorted(unknown)}"
            )
        return cls(**dict(data))


def poisson_arrivals(n: int, rate: float, seed: int = 0) -> np.ndarray:
    """``n`` ascending Poisson-process arrival times at ``rate``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x41525256]))
    gaps = rng.exponential(1.0 / rate, size=n)
    return np.cumsum(gaps)


def constant_arrivals(n: int, rate: float) -> np.ndarray:
    """Evenly spaced arrivals (period ``1/rate``), starting at ``1/rate``."""
    return (np.arange(n, dtype=np.float64) + 1.0) / rate


def mmpp_arrivals(
    n: int,
    rate_on: float,
    rate_off: float,
    mean_on: float,
    mean_off: float,
    seed: int = 0,
) -> np.ndarray:
    """On-off MMPP arrival times (thinning-free state-walk sampling).

    The process alternates exponential dwells in an ON state (Poisson
    at ``rate_on``) and an OFF state (``rate_off``, possibly 0); each
    interarrival is sampled by walking states until the next event
    lands inside the current dwell.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4D4D5050]))
    times = np.empty(n, dtype=np.float64)
    t = 0.0
    state_on = True
    state_end = rng.exponential(mean_on)
    for i in range(n):
        while True:
            rate = rate_on if state_on else rate_off
            gap = rng.exponential(1.0 / rate) if rate > 0 else float("inf")
            if t + gap <= state_end:
                t += gap
                times[i] = t
                break
            # Next event falls past this dwell: jump to the state switch
            # and resample (memorylessness makes this exact).
            t = state_end
            state_on = not state_on
            state_end = t + rng.exponential(mean_on if state_on else mean_off)
    return times


def generate_arrivals(spec: ArrivalSpec, n: int) -> np.ndarray:
    """Arrival-time vector for ``n`` requests under an open-loop spec."""
    if not spec.open_loop:
        raise ConfigurationError(
            "closed-loop arrivals are driven by the serve loop, not pregenerated"
        )
    if spec.process == "poisson":
        return poisson_arrivals(n, spec.rate, spec.seed)
    if spec.process == "constant":
        return constant_arrivals(n, spec.rate)
    rate_on = spec.rate_on if spec.rate_on is not None else 2.0 * spec.rate
    if spec.rate_off is not None:
        rate_off = spec.rate_off
    else:
        # Preserve the requested average rate given the other knobs:
        # avg = (rate_on*mean_on + rate_off*mean_off) / (mean_on+mean_off).
        rate_off = max(
            0.0,
            (spec.rate * (spec.mean_on + spec.mean_off) - rate_on * spec.mean_on)
            / spec.mean_off,
        )
    return mmpp_arrivals(
        n, rate_on, rate_off, spec.mean_on, spec.mean_off, spec.seed
    )
