"""Always-on evaluation service with fingerprint-keyed request coalescing.

``repro serve`` keeps one warm :class:`~repro.api.Session` -- persistent
two-tier cache open, worker pool alive -- behind a small stdlib
HTTP+JSON server, so the marginal cost of an evaluation request drops
from a cold CLI process to a cache lookup.  Identical in-flight requests
are coalesced by content fingerprint (design x workload x options) into a
single computation; results are bitwise-identical to ``repro run`` /
``repro search``.  See ``docs/serve.md``.

Layout:

* :mod:`repro.serve.protocol`  -- wire format and coalesce keys;
* :mod:`repro.serve.coalescer` -- shared in-flight computations;
* :mod:`repro.serve.telemetry` -- the ``/stats`` counters;
* :mod:`repro.serve.app`       -- the asyncio HTTP application;
* :mod:`repro.serve.client`    -- thin synchronous client.
"""

from repro.serve.app import DEFAULT_PORT, ServeApp
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalescer import Computation, RequestCoalescer
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RequestError,
    run_coalesce_key,
    search_coalesce_key,
)
from repro.serve.telemetry import ServeTelemetry

__all__ = [
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "Computation",
    "RequestCoalescer",
    "RequestError",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeTelemetry",
    "run_coalesce_key",
    "search_coalesce_key",
]
