"""Storage substrates: record formats, node-local FS, distributed FS.

The paper evaluates Glasswing both on node-local file systems and on HDFS
(accessed through libhdfs/JNI, deployed over IP-over-InfiniBand).  This
package provides both:

* :mod:`repro.storage.records` — record formats (text lines, fixed-size
  TeraSort records), key/value size schemas and the compression model used
  for intermediate data.
* :mod:`repro.storage.localfs` — per-node file system with an OS
  page-cache model (purgeable, as the paper purges caches between runs).
* :mod:`repro.storage.dfs` — block-based distributed FS with replication,
  block-location queries (for affinity scheduling) and a JNI access
  overhead model reproducing HDFS's Java/native switch costs.
"""

from repro.storage.localfs import LocalFS
from repro.storage.dfs import DFS, BlockLocation, JNIOverhead
from repro.storage.records import (
    CompressionModel,
    FixedRecordFormat,
    KVSchema,
    TextRecordFormat,
)

__all__ = [
    "DFS",
    "BlockLocation",
    "CompressionModel",
    "FixedRecordFormat",
    "JNIOverhead",
    "KVSchema",
    "LocalFS",
    "TextRecordFormat",
]
