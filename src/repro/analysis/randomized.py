"""Multi-seed statistics for randomized policies (§6 support).

GCM is randomized, so single-run comparisons are noisy; this module
runs a seeded family of instances and summarizes with mean and a
normal-approximation confidence interval.  Used by the §6 experiments
to make statements like "GCM's expected cost on the whole-block walk is
B× below block-oblivious marking" statistically honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.core.engine import simulate
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies.base import Policy

__all__ = ["SeedSummary", "seed_sweep", "compare_randomized"]


@dataclass(frozen=True)
class SeedSummary:
    """Mean/CI summary of a per-seed metric."""

    label: str
    n: int
    mean: float
    std: float
    ci_half_width: float  # 95% normal approximation

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    def as_row(self) -> Dict:
        return {
            "label": self.label,
            "n_seeds": self.n,
            "mean": self.mean,
            "std": self.std,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def _summarize(label: str, values: Sequence[float]) -> SeedSummary:
    n = len(values)
    if n < 1:
        raise ConfigurationError("need at least one seed")
    mean = sum(values) / n
    if n == 1:
        return SeedSummary(label=label, n=1, mean=mean, std=0.0, ci_half_width=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    half = 1.96 * std / math.sqrt(n)
    return SeedSummary(label=label, n=n, mean=mean, std=std, ci_half_width=half)


def seed_sweep(
    policy_factory: Callable[[int], Policy],
    trace: Trace,
    seeds: Sequence[int],
    metric: str = "misses",
    label: str = "policy",
) -> SeedSummary:
    """Run ``policy_factory(seed)`` over ``trace`` per seed; summarize.

    ``metric`` is any :class:`~repro.types.SimResult` attribute
    (``misses``, ``miss_ratio``, ``spatial_hits``, ...).  Each seed
    replays through its policy's kernel (bit-identical to the referee,
    which ``simulate`` falls back to for policies without one).
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    values: List[float] = []
    for seed in seeds:
        result = simulate(policy_factory(seed), trace, fast=True)
        values.append(float(getattr(result, metric)))
    return _summarize(label, values)


def compare_randomized(
    factories: Dict[str, Callable[[int], Policy]],
    trace: Trace,
    seeds: Sequence[int],
    metric: str = "misses",
) -> List[Dict]:
    """Per-policy seed summaries over a shared trace, as table rows."""
    return [
        seed_sweep(factory, trace, seeds, metric=metric, label=name).as_row()
        for name, factory in factories.items()
    ]
