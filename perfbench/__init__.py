"""The repository benchmark: end-to-end and per-layer metrics per workload.

Run one workload with one seed from the root of a checkout::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced,
with every time of a timed window scaled to one reference host speed
(:class:`perfbench.harness.Gauge`); with ``--trace 1`` they are the
per-layer self times and counts of a traced run.  The line before it
is a JSON record of the host and the workload's inputs.
``BENCHMARK.json`` at the repository root lists the workloads, the
metrics and their bounds.

Modules:

* :mod:`perfbench.harness` -- percentiles, the host speed gauge, peak
  RSS, set-up timing, the environment record and the result line;
* :mod:`perfbench.layers` -- the benchmark's own spans around key
  hashing and client calls, and per-layer aggregation of a trace;
* :mod:`perfbench.workloads` -- the batch workloads ``fig8-cold`` and
  ``search-ab-wide`` and their output checks;
* :mod:`perfbench.serve_load` -- the ``serve-warm`` workload: seeded
  request streams, the server process and the closed-loop client;
* :mod:`perfbench.steady` -- the steadiness proof over two interleaved
  sets of runs.
"""
