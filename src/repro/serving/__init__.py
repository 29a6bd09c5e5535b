"""Request-level serving simulation: from miss ratios to tail latency.

The offline layers answer *"how many misses"*; this package answers
*"what latency does a user see at a given offered load"*.  It is a
deterministic discrete-event simulator — seeded event heap, seeded
NumPy generators, no wall clock — so serving results content-address
exactly like offline cells.  See ``docs/serving.md`` for the model.
"""

from repro.serving.arrivals import (
    ArrivalSpec,
    constant_arrivals,
    generate_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
)
from repro.serving.histograms import LatencyHistogram
from repro.serving.service import (
    ServiceModel,
    ServingConfig,
    ServingResult,
    serve,
    serve_policy,
    serving_cell,
)

__all__ = [
    "ArrivalSpec",
    "LatencyHistogram",
    "ServiceModel",
    "ServingConfig",
    "ServingResult",
    "constant_arrivals",
    "generate_arrivals",
    "mmpp_arrivals",
    "poisson_arrivals",
    "serve",
    "serve_policy",
    "serving_cell",
]
