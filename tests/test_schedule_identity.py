"""Identity of the schedule keys ``Vertex`` and ``Edge``.

Both hash once, at construction, and pickle from their fields only. A
hash carried inside a pickle would go stale in a process with another
``PYTHONHASHSEED``: the artifact store and the compile server load
schedules pickled elsewhere, so a compiled ``Schedule`` is pickled under
one hash seed and checked under another, with lookups by freshly built
keys. Run as a script it does one side of that round trip:
``python tests/test_schedule_identity.py dump FILE`` or ``... load FILE``.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.adg import topologies
from repro.compiler import compile_kernel
from repro.scheduler.schedule import Edge, Vertex
from repro.utils.rng import DeterministicRng
from repro.workloads import kernel as make_kernel

# (Vertex("r", 5), Edge("r", 1, 5, 0, 2)) pickled when both were frozen
# dataclasses: state dicts of their fields.
DATACLASS_PICKLE = (
    b"\x80\x02crepro.scheduler.schedule\nVertex\nq\x00)\x81q\x01}q\x02(X"
    b"\x06\x00\x00\x00regionq\x03X\x01\x00\x00\x00rq\x04X\x07\x00\x00\x00"
    b"node_idq\x05K\x05ubcrepro.scheduler.schedule\nEdge\nq\x06)\x81q\x07}"
    b"q\x08(h\x03h\x04X\x06\x00\x00\x00src_idq\tK\x01X\x06\x00\x00\x00"
    b"dst_idq\nK\x05X\r\x00\x00\x00operand_indexq\x0bK\x00X\x04\x00\x00"
    b"\x00laneq\x0cK\x02ub\x86q\r."
)


def compiled_schedule():
    result = compile_kernel(
        make_kernel("pb_2mm", 0.05), topologies.softbrain(),
        rng=DeterministicRng(("identity", 1)), max_iters=20,
        max_scheduled_variants=1,
    )
    assert result.ok
    assert result.schedule.input_delays
    return result.schedule


def fresh(key):
    """An equal key built from plain fields in this process."""
    if isinstance(key, Vertex):
        return Vertex(key.region, key.node_id)
    return Edge(key.region, key.src_id, key.dst_id, key.operand_index,
                key.lane)


def check_schedule(sched):
    """Every placement, route and delay answers a freshly built key, and
    the live counters match their from-scratch oracles."""
    from tests.test_scheduler_incremental import assert_counters_match_oracles

    for table in (sched.placement, sched.routes, sched.input_delays):
        assert table
        for key, value in list(table.items()):
            assert table[fresh(key)] == value, key
    for vertex in sched.vertices():
        assert sched.placement.get(fresh(vertex)) \
            == sched.placement.get(vertex)
    assert_counters_match_oracles(sched)


def test_hash_is_the_field_tuple_hash():
    vertex = Vertex("r", 5)
    edge = Edge("r", 1, 5, 0, 2)
    assert hash(vertex) == hash(("r", 5))
    assert hash(edge) == hash(("r", 1, 5, 0, 2))
    assert edge.src == Vertex("r", 1) and edge.dst == vertex
    assert edge.value == ("r", 1, 2)
    assert edge == Edge("r", 1, 5, 0, 2) and edge != Edge("r", 1, 5, 0, 3)
    assert vertex != ("r", 5)
    assert repr(edge) == (
        "Edge(region='r', src_id=1, dst_id=5, operand_index=0, lane=2)")
    with pytest.raises(AttributeError):
        vertex.node_id = 6
    with pytest.raises(AttributeError):
        edge.lane = 1


def test_pickle_carries_fields_only():
    edge = Edge("r", 1, 5, 0, 2)
    assert edge.__reduce__() == (Edge, ("r", 1, 5, 0, 2))
    loaded = pickle.loads(pickle.dumps(edge))
    assert loaded == edge and hash(loaded) == hash(edge)
    assert loaded.src == edge.src and loaded.value == edge.value


def test_dataclass_era_pickles_load():
    vertex, edge = pickle.loads(DATACLASS_PICKLE)
    assert vertex == Vertex("r", 5) and hash(vertex) == hash(("r", 5))
    assert edge == Edge("r", 1, 5, 0, 2)
    assert edge.dst == vertex and edge.value == ("r", 1, 2)


def _run(hash_seed, *args):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_schedule_pickle_loads_under_another_hash_seed(tmp_path):
    path = str(tmp_path / "schedule.pkl")
    _run(0, "dump", path)
    assert _run(6, "load", path).split() == ["checked"]


if __name__ == "__main__":
    mode, path = sys.argv[1:3]
    if mode == "dump":
        with open(path, "wb") as handle:
            pickle.dump(compiled_schedule(), handle)
    else:
        with open(path, "rb") as handle:
            check_schedule(pickle.load(handle))
        print("checked")
