"""Reference implementations the fast paths in ``src/`` are held to.

Each module keeps the straightforward pre-optimization code path of one
substrate, verbatim in behaviour, so tier-1 tests can assert that the
optimized path in ``src/`` answers bitwise-identically and the perf
benchmarks can time it as their baseline:

* :mod:`tests.oracles.kernels` — the per-object §6 linking twins
  (dedup, census, absence, grouping, linking, consistency, lifetimes)
  and the unmemoized §4.2 validation;
* :mod:`tests.oracles.rows` — the row-at-a-time scan emitter, the
  generation parity check against it, and the row-walk index check.

Nothing in ``src/`` imports these modules.
"""
