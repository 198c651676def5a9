#!/usr/bin/env python3
"""Writing your own application: an inverted index.

Demonstrates the emit-style kernel API (§III-F): subclass
``RecordMapReduceApp``, implement ``map_record``/``combine``/``reduce``
plus the two cost-model methods, and the full Glasswing machinery —
pipeline, collectors, shuffle, out-of-core merging — is yours.

The job builds word -> sorted document-id postings over a corpus where
each line is ``doc_id<TAB>text``.

    python examples/inverted_index.py
"""

from repro.apps.datagen import wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.api import RecordMapReduceApp
from repro.hw.presets import das4_cluster
from repro.ocl.kernel import KernelCost
from repro.storage.records import KVSchema


class InvertedIndexApp(RecordMapReduceApp):
    """word -> tuple of doc ids containing it."""

    name = "inverted-index"
    # A width is a fixed byte count or a function of the object.
    inter_schema = KVSchema("ii", key_bytes=len, value_bytes=8)
    output_schema = KVSchema("ii-out", key_bytes=len,
                             value_bytes=lambda v: 8 * len(v))
    has_combiner = True

    def map_record(self, record, emit):
        doc_id, _tab, text = record.partition(b"\t")
        doc = int(doc_id)
        for word in set(text.split()):
            emit(word, doc)

    def combine(self, key, values):
        return [tuple(sorted(set(values)))]

    def reduce(self, key, values):
        docs = set()
        for v in values:
            docs.update(v if isinstance(v, tuple) else (v,))
        return [(key, tuple(sorted(docs)))]

    def map_cost(self, device, n_records, in_bytes):
        return KernelCost(flops=90.0 * in_bytes, device_bytes=2.0 * in_bytes)

    def reduce_cost(self, device, n_keys, n_values):
        return KernelCost(flops=30.0 * n_values, launches=0)


def make_corpus(n_docs: int) -> bytes:
    """n_docs documents, one per line: ``id<TAB>words...``"""
    text = wiki_text(n_docs * 120, seed=31)
    lines = text.strip().split(b"\n")[:n_docs]
    return b"\n".join(b"%d\t%s" % (i, line)
                      for i, line in enumerate(lines)) + b"\n"


def main() -> None:
    corpus = make_corpus(4_000)
    result = run_glasswing(InvertedIndexApp(), {"docs": corpus},
                           das4_cluster(nodes=4),
                           JobConfig(chunk_size=64 * 1024))
    index = dict(result.output_pairs())
    print(f"indexed {len(index)} distinct words from 4000 documents in "
          f"{result.job_time:.3f} simulated seconds")
    sample = sorted(index.items(), key=lambda kv: -len(kv[1]))[:5]
    for word, postings in sample:
        print(f"  {word.decode():<12} appears in {len(postings)} docs "
              f"(first: {postings[:6]})")
    # Spot-check correctness against a direct scan.
    word, postings = sample[0]
    direct = {int(line.split(b"\t")[0]) for line in corpus.splitlines()
              if word in set(line.split(b"\t")[1].split())}
    assert set(postings) == direct, "index does not match a direct scan!"
    print("postings verified against a direct corpus scan.")


if __name__ == "__main__":
    main()
