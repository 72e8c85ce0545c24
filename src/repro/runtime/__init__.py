"""The shared atlas runtime (delta-aware compiled core + predictor pool).

``repro.runtime`` is the subsystem between the atlas layer and the
query layer: an :class:`AtlasRuntime` owns one compiled query core per
atlas lineage, applies daily deltas to the CSR arrays **in place**
(bit-for-bit equal to a full recompile), incrementally merges client
FROM_SRC planes onto the shared base, re-runs the hottest cached
per-destination searches against each new graph version (pool
prewarming), and hands out predictors through a :class:`PredictorPool`
so server, remote agents and co-located clients share compiled graphs
and search caches instead of each rebuilding their own.
"""

from repro.runtime.patch import CompiledGraphPatcher, PatchConsistencyError
from repro.runtime.pool import PredictorPool
from repro.runtime.runtime import AtlasRuntime, RuntimeUpdateReport

__all__ = [
    "AtlasRuntime",
    "CompiledGraphPatcher",
    "PatchConsistencyError",
    "PredictorPool",
    "RuntimeUpdateReport",
]
