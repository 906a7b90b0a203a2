"""Sweep runtime: parallel design-space execution + persistent result cache.

The runtime package turns the serial, process-lifetime-memoized evaluation
loop into an incremental, parallel one:

* :class:`~repro.runtime.cache.PersistentLayerCache` stores every simulated
  result on disk in two content-addressed tiers -- whole networks keyed by
  :func:`repro.sim.engine.network_key` (a warm run resolves each network in
  one read) and individual layers keyed by
  :func:`repro.sim.engine.simulation_key` (the fallback that makes partial
  reuse work across configs and categories);
* :mod:`repro.runtime.runner` runs design-point evaluations as one task
  per network, in process or fanned out over worker processes with
  deterministic chunking, so any worker count reproduces the serial
  results bit for bit;
* :func:`~repro.runtime.search.run_search_loop` pumps guided-search
  strategies (:mod:`repro.search`) through batched, cache-backed
  evaluations -- the ask/tell loop behind ``repro search``.

Example -- a warm sweep served from the network tier::

    from repro.api import Session
    from repro.config import ModelCategory
    from repro.dse.explorer import design_space

    session = Session(workers=4, cache_dir="/tmp/repro-cache")
    outcome = session.evaluate(design_space("b"), (ModelCategory.B,))
    print(outcome.cache_stats.network_hits, outcome.cache_stats.layer_lookups)

See ``docs/caching.md`` for the key derivation and invalidation rules.
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    PersistentLayerCache,
    default_cache_dir,
    network_result_from_dict,
    network_result_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.runtime.runner import SweepOutcome
from repro.runtime.search import SearchLoopOutcome, run_search_loop

__all__ = [
    "SearchLoopOutcome",
    "run_search_loop",
    "CACHE_DIR_ENV",
    "CacheStats",
    "PersistentLayerCache",
    "SweepOutcome",
    "default_cache_dir",
    "network_result_from_dict",
    "network_result_to_dict",
    "result_from_dict",
    "result_to_dict",
]
