"""Model-based test: LocalFS behaves like a plain dict of bytes.

Random sequences of writes/appends/reads/deletes are applied both to the
simulated file system and to a pure-Python model; contents must agree at
every step regardless of cache behaviour.
"""

from hypothesis import given, settings, strategies as st

from repro.hw import Node
from repro.hw.presets import type1_node
from repro.simt import Simulator
from repro.storage.localfs import LocalFS

PATHS = ["a", "b", "dir/c"]

op = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(PATHS),
              st.binary(max_size=60)),
    st.tuples(st.just("append"), st.sampled_from(PATHS),
              st.binary(max_size=40)),
    st.tuples(st.just("read"), st.sampled_from(PATHS),
              st.integers(0, 80), st.integers(0, 80)),
    st.tuples(st.just("delete"), st.sampled_from(PATHS)),
    st.tuples(st.just("purge"),),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(op, max_size=30))
def test_localfs_matches_dict_model(ops):
    sim = Simulator()
    fs = LocalFS(Node(sim, type1_node(), 0))
    model = {}

    def drive(gen):
        p = sim.process(gen)
        sim.run()
        return p.value

    for operation in ops:
        kind = operation[0]
        if kind == "write":
            _, path, data = operation
            drive(fs.write(path, data))
            model[path] = data
        elif kind == "append":
            _, path, data = operation
            drive(fs.write(path, data, append=True))
            model[path] = model.get(path, b"") + data
        elif kind == "read":
            _, path, off, ln = operation
            if path in model:
                got = drive(fs.read(path, off, ln))
                assert got == model[path][off:off + ln]
            else:
                assert not fs.exists(path)
        elif kind == "delete":
            _, path = operation
            if path in model:
                fs.delete(path)
                del model[path]
            else:
                assert not fs.exists(path)
        elif kind == "purge":
            fs.purge_cache()  # must never change contents

    for path, data in model.items():
        assert fs.size(path) == len(data)
        assert drive(fs.read(path)) == data
    assert fs.listdir() == sorted(model)
