"""Property-based tests (hypothesis) for the checksummed frame.

Spool entries, snapshot files and journal records are all frames of
:func:`repro.runtime.transport.encode_frame`.  These properties pin the
one decoder behind them: payloads round-trip bitwise, a single-frame file
that is cut short or has any one byte flipped fails typed before anything
is unpickled, and a journal cut at any offset yields exactly the records
written wholly before the cut.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.exceptions import SnapshotIntegrityError, SpoolIntegrityError
from repro.runtime import transport
from repro.storage import AppendJournal, read_journal

pytestmark = pytest.mark.durability

FEW = settings(max_examples=25, deadline=None, derandomize=True)

ndarrays = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
).flatmap(lambda dtype: arrays(dtype, array_shapes(min_dims=0, max_dims=3, max_side=9)))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
payloads = st.lists(
    st.one_of(ndarrays, ndarrays.map(np.asfortranarray), scalars), max_size=5
).map(tuple)

#: One payload for the damage properties: buffers, a stream and padding.
DAMAGE_PAYLOAD = (np.arange(40, dtype=np.int64).reshape(8, 5), np.linspace(0.0, 1.0, 7), 3)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("frames")


def assert_bitwise(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


@given(payload=payloads)
@FEW
def test_payloads_round_trip_bitwise(directory, payload):
    path = str(directory / "round-trip")
    crc = transport.write_spool_bundle(path, payload)
    assert transport.encode_frame(payload)[1] == crc
    assert os.path.getsize(path) % 64 == 0
    for loaded in (transport.load_spool_payload(path), transport.load_snapshot_file(path, crc)):
        assert len(loaded) == len(payload)
        for got, want in zip(loaded, payload):
            assert_bitwise(got, want)


@given(data=st.data())
@FEW
def test_a_cut_or_flipped_file_fails_typed_before_unpickling(directory, data):
    path = str(directory / "damaged")
    crc = transport.write_spool_bundle(path, DAMAGE_PAYLOAD)
    with open(path, "rb") as handle:
        frame = handle.read()
    offset = data.draw(st.integers(0, len(frame) - 1), label="offset")
    if data.draw(st.booleans(), label="cut"):
        damaged = bytearray(frame[:offset])
    else:
        damaged = bytearray(frame)
        damaged[offset] ^= data.draw(st.integers(1, 255), label="flip")
    with open(path, "wb") as handle:
        handle.write(damaged)
    with mock.patch.object(transport.pickle, "loads", side_effect=AssertionError) as loads:
        assert not transport.verify_spool_entry(path)
        with pytest.raises(SpoolIntegrityError):
            transport.load_spool_payload(path)
        with pytest.raises(SnapshotIntegrityError):
            transport.load_snapshot_file(path, crc)
    assert loads.call_count == 0


@given(
    rows=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    cut=st.floats(0.0, 1.0),
)
@FEW
def test_a_cut_journal_yields_exactly_the_records_before_the_cut(directory, rows, cut):
    path = str(directory / "journal.wal")
    if os.path.exists(path):
        os.remove(path)
    rng = np.random.default_rng(len(rows))
    written, ends = [], []
    with AppendJournal(path) as journal:
        for seq, count in enumerate(rows, start=1):
            features, labels = rng.normal(size=(count, 3)), rng.integers(0, 9, count)
            journal.record(seq, features, labels)
            written.append((seq, features, labels))
            ends.append(os.path.getsize(path))
    offset = int(cut * ends[-1])
    os.truncate(path, offset)
    whole = [end <= offset for end in ends]
    records, valid_bytes = read_journal(path, repair=True)
    assert [record.seq for record in records] == [seq for seq, _, _ in written[: sum(whole)]]
    for record, (_, features, labels) in zip(records, written):
        assert_bitwise(record.features, features)
        assert_bitwise(record.labels, labels)
    assert valid_bytes == max([0] + [end for end in ends if end <= offset])
    assert os.path.getsize(path) == valid_bytes
