"""Cluster interconnect: per-node full-duplex links with a shared fabric.

Transfers occupy the sender's TX channel and the receiver's RX channel for
``bytes / effective_bandwidth`` after a one-way latency, so a node pushing
partitions to many peers and receiving from many peers at once serialises
on its own NIC — the behaviour that makes the shuffle a real pipeline
stage worth overlapping (the paper's central claim).
"""

from repro.net.transport import Network

__all__ = ["Network"]
