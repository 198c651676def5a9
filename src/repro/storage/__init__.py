"""Storage substrates: record formats, node-local FS, distributed FS.

The paper evaluates Glasswing both on node-local file systems and on HDFS
(accessed through libhdfs/JNI, deployed over IP-over-InfiniBand).  This
package provides both, behind one interface:

* :mod:`repro.storage.backend` — :class:`StorageBackend`, the seam every
  engine reads and writes through, :func:`make_backend` to open one by
  name, and the node-local implementation (:class:`LocalBackend`).

* :mod:`repro.storage.records` — record formats (text lines, fixed-size
  TeraSort records), key/value size schemas and the compression model used
  for intermediate data.
* :mod:`repro.storage.localfs` — per-node file system with an OS
  page-cache model (purgeable, as the paper purges caches between runs).
* :mod:`repro.storage.dfs` — block-based distributed FS with replication,
  block-location queries (for affinity scheduling) and a JNI access
  overhead model reproducing HDFS's Java/native switch costs.
* :mod:`repro.storage.cache` — cache-aside wrapper that serves immutable
  ranges a node already paid for from its RAM (the DAG engine's rounds).
"""

from repro.storage.localfs import LocalFS
from repro.storage.backend import (
    BlockLocation,
    LocalBackend,
    StorageBackend,
    make_backend,
)
from repro.storage.dfs import DFS, JNIOverhead
from repro.storage.cache import CacheAsideBackend
from repro.storage.records import (
    CompressionModel,
    FixedRecordFormat,
    KVSchema,
    TextRecordFormat,
)

__all__ = [
    "DFS",
    "BlockLocation",
    "CacheAsideBackend",
    "CompressionModel",
    "FixedRecordFormat",
    "JNIOverhead",
    "KVSchema",
    "LocalBackend",
    "LocalFS",
    "StorageBackend",
    "TextRecordFormat",
    "make_backend",
]
