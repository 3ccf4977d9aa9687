"""Unit tests for the batched engine's per-lane occupancy rows.

Each lane keeps its counts in one ``array('i')`` row: ``row.tobytes()``
keys the shared plan and stop-predicate caches, and
:meth:`BatchEngine.packed_states` packs every row through the shared
:class:`~repro.core.cyclic.PackedSequenceCodec`.
"""

import random

import pytest

from repro.algorithms import AlignAlgorithm, IdleAlgorithm
from repro.batchsim import BatchEngine
from repro.batchsim.backends import resolve_backend
from repro.core.configuration import Configuration
from repro.core.cyclic import packed_codec
from repro.simulator.options import EngineOptions
from repro.workloads.generators import random_rigid_configuration

SHAPES = [(9, 4), (12, 5), (16, 7)]


def _configurations(n, k, count=3):
    return [
        random_rigid_configuration(n, k, random.Random(500 + i)) for i in range(count)
    ]


def _codec_for(engine):
    counts = [engine.lane(i).counts_tuple for i in range(engine.num_lanes)]
    return packed_codec(engine.ring_size, max(max(c) for c in counts))


@pytest.mark.parametrize("n,k", SHAPES, ids=[f"{n}x{k}" for n, k in SHAPES])
class TestLaneRows:
    def test_num_lanes(self, n, k):
        engine = BatchEngine(AlignAlgorithm(), _configurations(n, k))
        assert engine.num_lanes == 3

    def test_rows_hold_initial_counts(self, n, k):
        configurations = _configurations(n, k)
        engine = BatchEngine(AlignAlgorithm(), configurations)
        for i, configuration in enumerate(configurations):
            row = engine.lane(i).row
            assert row.typecode == "i"
            assert tuple(row) == configuration.counts
            assert all(type(c) is int for c in row)

    def test_row_bytes_are_lane_key(self, n, k):
        engine = BatchEngine(AlignAlgorithm(), _configurations(n, k))
        for i in range(engine.num_lanes):
            lane = engine.lane(i)
            assert lane.key == lane.row.tobytes()

    def test_keys_distinguish_distinct_rows(self, n, k):
        configurations = _configurations(n, k)
        engine = BatchEngine(AlignAlgorithm(), configurations)
        keys = {engine.lane(i).key for i in range(engine.num_lanes)}
        assert len(keys) == len({c.counts for c in configurations})

    def test_rows_track_counts_through_run(self, n, k):
        engine = BatchEngine(AlignAlgorithm(), _configurations(n, k))
        engine.run(25)
        for i in range(engine.num_lanes):
            lane = engine.lane(i)
            assert tuple(lane.row) == lane.counts_tuple
            assert engine.lane_view(i).configuration.counts == lane.counts_tuple
            assert sum(lane.row) == k

    def test_packed_states_match_codec(self, n, k):
        engine = BatchEngine(AlignAlgorithm(), _configurations(n, k))
        engine.run(25)
        codec = _codec_for(engine)
        assert engine.packed_states() == codec.pack_many(
            [engine.lane(i).counts_tuple for i in range(engine.num_lanes)]
        )

    def test_packed_states_unpack_to_rows(self, n, k):
        engine = BatchEngine(AlignAlgorithm(), _configurations(n, k))
        engine.run(25)
        codec = _codec_for(engine)
        assert codec.unpack_many(engine.packed_states()) == [
            tuple(engine.lane(i).row) for i in range(engine.num_lanes)
        ]


def test_packed_states_exceed_int64():
    # n=24 with all 8 robots stacked needs 96 bits per packed state.
    n, k = 24, 8
    stacked = Configuration([k] + [0] * (n - 1))
    engine = BatchEngine(
        IdleAlgorithm(),
        [stacked],
        options=EngineOptions(exclusive=False, multiplicity_detection=True),
    )
    packed = engine.packed_states()
    assert packed == packed_codec(n, k).pack_many([stacked.counts])
    assert packed[0] > 2**63


def test_resolve_backend_names_the_row_storage():
    assert resolve_backend() == "stdlib"
