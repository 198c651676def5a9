"""Glasswing reproduction: *Scaling MapReduce Vertically and Horizontally* (SC'14).

This package implements the Glasswing MapReduce framework — a 5-stage
pipeline that overlaps disk I/O, host<->device transfers, computation and
network communication — together with every substrate the paper depends on:
a discrete-event simulation kernel (:mod:`repro.simt`), hardware models
(:mod:`repro.hw`), the compute-device cost and memory model (:mod:`repro.ocl`),
local and distributed storage (:mod:`repro.storage`), a network transport
(:mod:`repro.net`), the Glasswing core (:mod:`repro.core`), Hadoop- and
GPMR-style baselines (:mod:`repro.baselines`), the paper's five
applications (:mod:`repro.apps`) and the experiment harness
(:mod:`repro.bench`).

Quickstart::

    from repro.apps import WordCountApp
    from repro.core import JobConfig, run_glasswing
    from repro.hw.presets import das4_cluster

    inputs = {"corpus": b"the quick brown fox\\nthe lazy dog\\n"}
    result = run_glasswing(WordCountApp(), inputs,
                           das4_cluster(nodes=2),
                           JobConfig(chunk_size=1024))
    print(sorted(result.output_pairs()))
"""

from repro.version import __version__

__all__ = ["__version__"]
