"""The repo's benchmark: host-time and simulated-time, end to end and per layer.

Run it with ``python -m perf`` from the repository root (see
``perf/README.md``).  Two clocks are reported and every number is
labelled with the one it uses:

* **[host]** — what the Python simulator costs on this machine
  (wall seconds, resident memory);
* **[sim]** — what the modelled cluster would take (virtual seconds),
  which is deterministic for a given seed;
* **[n]** — an exact count, identical on every run of one commit.

The package drives ``repro`` only through public functions and touches
nothing outside its own directory.
"""
