"""Durable storage tier: journal, snapshots, warm restart, cold tenancy.

The recovery contract these tests pin: an acknowledged append is never
lost (``kill -9`` mid-burst included), a restored searcher serves results
**bitwise identical** to one that never crashed, a torn journal tail — the
expected artifact of an abrupt death mid-write — is silently truncated,
while corruption *behind* the tail or inside a snapshot fails typed with
:class:`~repro.exceptions.SnapshotIntegrityError` rather than serving
partial state.  On top sit the warm-restart integration rungs: snapshot
geometry surviving config drift, restores into a worker pool, and
:class:`~repro.storage.ColdTenantPool` serving ``2N`` tenants on
``N``-capacity RAM with bitwise parity.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import make_searcher
from repro.exceptions import ConfigurationError, SearchError, SnapshotIntegrityError
from repro.runtime import (
    FaultInjector,
    ProcessShardExecutor,
    shared_memory_available,
    write_spool_bundle,
)
from repro.runtime import transport as transport_module
from repro.storage import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    AppendJournal,
    ColdTenantPool,
    load_snapshot,
    read_journal,
)
from repro.storage import snapshot as snapshot_module
from repro.utils.io import load_json, save_json

pytestmark = pytest.mark.durability

FEATURES = 6
BASE_ROWS = 30
QUERIES = np.random.default_rng(3).normal(size=(5, FEATURES))


def base_data(seed=101, rows=BASE_ROWS):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, FEATURES)), rng.integers(0, 5, rows)


def append_row(seq):
    """Deterministic per-sequence append row, reproducible across processes."""
    rng = np.random.default_rng(1_000 + seq)
    return rng.normal(size=(1, FEATURES)), rng.integers(0, 5, 1)


def in_range_row(seq):
    """An append row clipped into the base store's range (the rows-only path)."""
    features, labels = append_row(seq)
    stored, _ = base_data()
    return np.clip(features, stored.min(axis=0), stored.max(axis=0)), labels


#: Every field of a format-3 manifest and of its file entries, as key paths.
MANIFEST_FIELDS = (
    "format kind snapshot_id snapshot_dir applied_seq num_entries num_features appendable "
    "requested_shards max_rows_per_array epoch_counter calibration_fingerprint shards store"
).split()
MANIFEST_FIELD_PATHS = (
    [(field,) for field in MANIFEST_FIELDS]
    + [("shards", 0, field) for field in ("file", "crc32", "epoch", "entries")]
    + [("store", field) for field in ("file", "crc32")]
)


def make_sharded(shards=3, executor="serial", appendable=True, seed=7):
    return make_searcher(
        "mcam-3bit",
        num_features=FEATURES,
        seed=seed,
        shards=shards,
        executor=executor,
        appendable=appendable,
    )


def fitted_searcher(directory=None, **kwargs):
    searcher = make_sharded(**kwargs)
    searcher.fit(*base_data())
    if directory is not None:
        searcher.enable_durability(directory)
    return searcher


def assert_bitwise(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.scores, want.scores)
    assert got.labels == want.labels


def scribble(path):
    """Flip bytes mid-file: size-preserving corruption the CRC must catch."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        handle.write(b"\xde\xad\xbe\xef")


# ----------------------------------------------------------------------
# Append journal (unit)
# ----------------------------------------------------------------------
class TestAppendJournal:
    def journal_path(self, tmp_path):
        return str(tmp_path / JOURNAL_NAME)

    def write_records(self, path, seqs):
        with AppendJournal(path) as journal:
            for seq in seqs:
                features, labels = append_row(seq)
                journal.record(seq, features, labels)

    def test_round_trips_records_bitwise(self, tmp_path):
        path = self.journal_path(tmp_path)
        self.write_records(path, [1, 2, 3])
        records, _ = read_journal(path)
        assert [record.seq for record in records] == [1, 2, 3]
        for record in records:
            features, labels = append_row(record.seq)
            np.testing.assert_array_equal(record.features, features)
            np.testing.assert_array_equal(record.labels, labels)

    def test_missing_journal_reads_empty(self, tmp_path):
        records, offset = read_journal(self.journal_path(tmp_path))
        assert records == [] and offset == 0

    def test_torn_tail_is_tolerated_and_repair_truncates(self, tmp_path):
        path = self.journal_path(tmp_path)
        self.write_records(path, [1, 2, 3])
        full_size = os.path.getsize(path)
        os.truncate(path, full_size - 7)  # tear the last frame mid-payload
        records, offset = read_journal(path)
        assert [record.seq for record in records] == [1, 2]
        assert offset < full_size - 7  # the torn frame is behind the offset
        assert os.path.getsize(path) == full_size - 7  # read-only: no repair
        records, _ = read_journal(path, repair=True)
        assert [record.seq for record in records] == [1, 2]
        assert os.path.getsize(path) == offset  # tail truncated away
        # The repaired journal appends cleanly at the truncated offset.
        with AppendJournal(path) as journal:
            journal.record(3, *append_row(3))
        records, _ = read_journal(path)
        assert [record.seq for record in records] == [1, 2, 3]

    def test_corruption_behind_the_tail_raises_typed(self, tmp_path):
        path = self.journal_path(tmp_path)
        self.write_records(path, [1, 2, 3])
        with open(path, "r+b") as handle:
            handle.seek(60)  # inside the first frame, past its prefix
            handle.write(b"\xff\xff")
        with pytest.raises(SnapshotIntegrityError):
            read_journal(path, repair=True)

    def test_a_damaged_length_raises_typed_and_keeps_the_file(self, tmp_path):
        # A length no check covered would read as a torn tail, and the
        # repair would truncate acknowledged records away.
        path = self.journal_path(tmp_path)
        self.write_records(path, [1, 2, 3])
        with open(path, "rb") as handle:
            journal = handle.read()
        prefix = transport_module._FRAME_PREFIX
        starts = [0]
        while starts[-1] < len(journal):
            starts.append(starts[-1] + prefix.unpack_from(journal, starts[-1])[2])
        assert len(starts) == 4 and starts[-1] == len(journal)
        for start in starts[:-1]:
            # The magic is 8 bytes; the length's CRC-32 (4) and the length (8) follow.
            for offset in range(start + 8, start + 20):
                damaged = bytearray(journal)
                damaged[offset] ^= 0xFF
                with open(path, "wb") as handle:
                    handle.write(damaged)
                with pytest.raises(SnapshotIntegrityError, match="length"):
                    read_journal(path, repair=True)
                assert os.path.getsize(path) == len(journal)

    def test_non_increasing_sequence_raises_typed(self, tmp_path):
        path = self.journal_path(tmp_path)
        self.write_records(path, [1, 1])
        with pytest.raises(SnapshotIntegrityError):
            read_journal(path)

    def test_checkpoint_truncates_covered_records(self, tmp_path):
        path = self.journal_path(tmp_path)
        journal = AppendJournal(path)
        for seq in range(1, 5):
            journal.record(seq, *append_row(seq))
        assert journal.checkpoint(applied_seq=2) == 2
        records, _ = read_journal(path)
        assert [record.seq for record in records] == [3, 4]
        # Recording continues seamlessly after the rewrite.
        journal.record(5, *append_row(5))
        assert journal.checkpoint(applied_seq=5) == 0
        records, _ = read_journal(path)
        assert records == []
        journal.close()

    def test_checkpoint_races_concurrent_records_losslessly(self, tmp_path):
        path = self.journal_path(tmp_path)
        journal = AppendJournal(path)
        journal.record(1, *append_row(1))
        stop = threading.Event()

        def churn():
            seq = 2
            while not stop.is_set():
                journal.record(seq, *append_row(seq))
                seq += 1

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            for _ in range(5):
                journal.checkpoint(applied_seq=1)
        finally:
            stop.set()
            writer.join()
        journal.close()
        records, _ = read_journal(path)
        # Every record the writer acknowledged after the checkpoint floor
        # survives, in order and gap-free.
        seqs = [record.seq for record in records]
        assert seqs == list(range(2, 2 + len(seqs)))


# ----------------------------------------------------------------------
# Snapshot / restore (unit + config drift)
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_restore_is_bitwise_identical(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        want = searcher.kneighbors_batch(QUERIES, k=3)
        searcher.snapshot()
        searcher.close()
        restored = make_sharded().restore(tmp_path)
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=3), want)
        restored.close()

    def test_snapshot_shards_are_their_spool_frames_under_the_manifest_crc(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.kneighbors_batch(QUERIES, k=3)  # built search caches stay out of files
        generation = searcher.snapshot()
        manifest = load_json(tmp_path / MANIFEST_NAME)
        assert manifest["format"] == 3
        assert sorted(manifest) == sorted(MANIFEST_FIELDS)
        assert len(manifest["shards"]) == searcher.num_shards
        payloads = zip(searcher._shards, searcher._index_maps)
        for index, (entry, payload) in enumerate(zip(manifest["shards"], payloads)):
            assert entry["file"] == f"shard-{index}.pkl"
            spool_entry = str(tmp_path / f"spool-{index}")
            assert write_spool_bundle(spool_entry, payload) == entry["crc32"]
            with open(os.path.join(generation, entry["file"]), "rb") as handle:
                data = handle.read()
            with open(spool_entry, "rb") as handle:
                assert data == handle.read()
        searcher.close()

    def test_generation_holds_exactly_the_files_its_manifest_lists(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.append(*append_row(1))
        generation = searcher.snapshot()
        searcher.close()
        manifest = load_json(tmp_path / MANIFEST_NAME)
        assert os.path.basename(generation) == manifest["snapshot_dir"]
        listed = [entry["file"] for entry in manifest["shards"]] + [manifest["store"]["file"]]
        assert sorted(os.listdir(generation)) == sorted(listed)

    @pytest.mark.parametrize("old_format", [1, 2])
    def test_older_format_generation_is_refused_before_any_file_is_read(
        self, tmp_path, monkeypatch, old_format
    ):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.close()
        manifest = load_json(tmp_path / MANIFEST_NAME)
        manifest["format"] = old_format
        save_json(manifest, tmp_path / MANIFEST_NAME)
        read = []
        monkeypatch.setattr(snapshot_module, "load_snapshot_file", lambda *args: read.append(args))
        with pytest.raises(SnapshotIntegrityError, match=f"format {old_format}"):
            make_sharded().restore(tmp_path)
        assert read == []

    @pytest.mark.parametrize("damage", ["missing", "mistyped"])
    @pytest.mark.parametrize(
        "path", MANIFEST_FIELD_PATHS, ids=lambda path: "/".join(map(str, path))
    )
    def test_manifest_with_a_damaged_field_is_refused_typed(
        self, tmp_path, monkeypatch, path, damage
    ):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.close()
        manifest = load_json(tmp_path / MANIFEST_NAME)
        *parents, field = path
        record = manifest
        for step in parents:
            record = record[step]
        if damage == "missing":
            del record[field]
        else:
            # A JSON boolean is never a count, name, list or fingerprint,
            # and a count is never the boolean ``appendable``.
            record[field] = 1 if type(record[field]) is bool else True
        save_json(manifest, tmp_path / MANIFEST_NAME)
        read = []
        monkeypatch.setattr(snapshot_module, "load_snapshot_file", lambda *args: read.append(args))
        with pytest.raises(SnapshotIntegrityError):
            make_sharded().restore(tmp_path)
        assert read == []

    def test_journal_replay_recovers_acknowledged_appends(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        for seq in range(1, 4):
            searcher.append(*append_row(seq))
        want = searcher.kneighbors_batch(QUERIES, k=3)
        searcher.close()  # journal holds 3 records the snapshot predates
        restored = make_sharded().restore(tmp_path)
        assert restored.num_entries == BASE_ROWS + 3
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=3), want)
        restored.close()

    def test_never_appended_restore(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        want = searcher.kneighbors_batch(QUERIES, k=2)
        searcher.snapshot()
        searcher.close()
        # No append ever happened: the journal file does not even exist.
        assert not os.path.exists(tmp_path / JOURNAL_NAME)
        restored = make_sharded().restore(tmp_path)
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=2), want)
        restored.close()

    def test_double_restore_is_idempotent(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.append(*append_row(1))
        want = searcher.kneighbors_batch(QUERIES, k=3)
        searcher.close()
        restored = make_sharded()
        restored.restore(tmp_path)
        epochs_first = list(restored._shard_epochs)
        restored.restore(tmp_path)
        # Fresh epochs each time — a worker cache keyed on the first
        # restore's epochs can never alias the second's shards.
        assert all(b > a for a, b in zip(epochs_first, restored._shard_epochs))
        assert restored.num_entries == BASE_ROWS + 1
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=3), want)
        restored.close()

    def test_snapshot_geometry_wins_over_constructor_shards(self, tmp_path):
        searcher = fitted_searcher(tmp_path, shards=3)
        want = searcher.kneighbors_batch(QUERIES, k=3)
        searcher.snapshot()
        searcher.close()
        restored = make_sharded(shards=5).restore(tmp_path)
        assert restored.num_shards == 3
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=3), want)
        restored.close()

    def test_snapshot_again_replaces_the_old_generation(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        first = searcher.snapshot()
        searcher.append(*append_row(1))
        second = searcher.snapshot()
        searcher.close()
        assert first != second
        assert not os.path.exists(first)
        generations = [name for name in os.listdir(tmp_path) if name.startswith("snap-")]
        assert generations == [os.path.basename(second)]

    def test_snapshot_checkpoints_the_journal(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        for seq in range(1, 4):
            searcher.append(*append_row(seq))
        searcher.snapshot()
        # snapshot() checkpointed the journal before it returned.
        records, _ = read_journal(str(tmp_path / JOURNAL_NAME))
        assert records == []  # the new snapshot covers every append
        searcher.close()

    def test_restore_without_snapshot_raises_typed(self, tmp_path):
        with pytest.raises(SnapshotIntegrityError):
            make_sharded().restore(tmp_path)

    def test_snapshot_before_fit_raises_typed(self, tmp_path):
        with pytest.raises(SearchError):
            make_sharded().snapshot(tmp_path)

    def test_snapshot_without_directory_raises_typed(self):
        searcher = make_sharded()
        searcher.fit(*base_data())
        with pytest.raises(SearchError):
            searcher.snapshot()
        searcher.close()

    def test_journal_records_into_non_appendable_restore_raise(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.append(*append_row(1))
        searcher.close()
        with pytest.raises(SearchError):
            make_sharded(appendable=False).restore(tmp_path)

    def test_snapshot_racing_appends_is_one_consistent_cut(self, tmp_path):
        # Appends hammer the searcher while snapshots land mid-burst: each
        # append must end up either wholly inside a snapshot (covered by
        # its applied_seq and checkpointed away) or wholly in the journal
        # (replayed on restore) — never baked into the pickled shards AND
        # replayed again, and never half-pickled.
        total = 12
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        done = threading.Event()

        def burst():
            for seq in range(1, total + 1):
                searcher.append(*append_row(seq))
            done.set()

        appender = threading.Thread(target=burst)
        appender.start()
        while not done.is_set():
            searcher.snapshot()
        appender.join()
        searcher.close()
        restored = make_sharded().restore(tmp_path)
        assert restored.num_entries == BASE_ROWS + total
        reference = make_sharded()
        reference.fit(*base_data())
        for seq in range(1, total + 1):
            reference.append(*append_row(seq))
        assert_bitwise(
            restored.kneighbors_batch(QUERIES, k=3),
            reference.kneighbors_batch(QUERIES, k=3),
        )
        restored.close()
        reference.close()

    def test_checkpoint_failure_raises_from_its_own_snapshot(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.append(*append_row(1))
        searcher.snapshot()  # healthy checkpoint

        def boom(applied_seq):
            raise SnapshotIntegrityError("checkpoint blew up")

        searcher._journal.checkpoint = boom
        searcher.append(*append_row(2))
        want = searcher.kneighbors_batch(QUERIES, k=3)
        with pytest.raises(SnapshotIntegrityError, match="checkpoint blew up"):
            searcher.snapshot()
        # The generation committed before the checkpoint ran, and the
        # journal kept the record that generation covers.
        assert load_json(tmp_path / MANIFEST_NAME)["applied_seq"] == 2
        records, _ = read_journal(str(tmp_path / JOURNAL_NAME))
        assert [record.seq for record in records] == [2]
        searcher.close()
        restored = make_sharded().restore(tmp_path)
        assert restored.num_entries == BASE_ROWS + 2
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=3), want)
        restored.close()

    def test_hibernate_releases_state_and_restore_brings_it_back(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.append(*in_range_row(1))  # leaves spare capacity behind
        assert searcher._store_spare
        want = searcher.kneighbors_batch(QUERIES, k=3)
        searcher.hibernate()
        assert searcher.num_shards == 0
        assert searcher._store_features is None
        assert searcher._store_spare == {}
        with pytest.raises(SearchError):
            searcher.kneighbors_batch(QUERIES, k=3)
        searcher.restore()
        assert searcher._store_spare == {}
        assert_bitwise(searcher.kneighbors_batch(QUERIES, k=3), want)
        searcher.close()

    def test_restore_after_in_range_appends_answers_like_the_writer(self, tmp_path):
        writer = fitted_searcher(tmp_path)
        writer.snapshot()
        for seq in range(1, 4):
            writer.append(*in_range_row(seq))
        writer.snapshot()
        for seq in range(4, 9):
            writer.append(*in_range_row(seq))  # replayed through the rows-only path
        want = writer.kneighbors_batch(QUERIES, k=4)
        restored = make_sharded().restore(tmp_path)
        assert restored.num_entries == BASE_ROWS + 8
        assert_bitwise(restored.kneighbors_batch(QUERIES, k=4), want)
        # Both keep growing identically: an in-range and an out-of-range row.
        for searcher in (writer, restored):
            searcher.append(*in_range_row(9))
            searcher.append(*append_row(10))
        assert_bitwise(
            restored.kneighbors_batch(QUERIES, k=4), writer.kneighbors_batch(QUERIES, k=4)
        )
        writer.close()
        restored.close()

    def test_journaled_append_to_an_unfitted_searcher_raises_before_any_change(self, tmp_path):
        # The journal covers appends, not fits: a first append that fit the
        # store would be acknowledged yet unrecoverable (no snapshot to
        # replay it onto), so it is refused outright.
        searcher = make_sharded(shards=2).enable_durability(tmp_path)
        with pytest.raises(SearchError, match="fit and snapshot first"):
            searcher.append(*base_data())
        assert not searcher.is_fitted and searcher.num_shards == 0
        assert searcher._append_seq == 0
        assert read_journal(str(tmp_path / JOURNAL_NAME))[0] == []
        searcher.close()


# ----------------------------------------------------------------------
# Warm restart through the executor (integration)
# ----------------------------------------------------------------------
class TestWarmRestart:
    @pytest.mark.skipif(not shared_memory_available(), reason="no shared memory on host")
    def test_restore_into_worker_pool_serves_bitwise(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.append(*append_row(1))
        want = searcher.kneighbors_batch(QUERIES, k=3)
        searcher.close()
        # A different worker count and executor than the (serial) writer.
        with ProcessShardExecutor(num_workers=2) as executor:
            restored = make_sharded(executor=executor).restore(tmp_path)
            assert_bitwise(restored.kneighbors_batch(QUERIES, k=3), want)
            restored.close()

    def test_scheduler_snapshot_lane_round_trips(self, tmp_path):
        from repro.serving import MicroBatchScheduler

        searcher = fitted_searcher(tmp_path)
        with MicroBatchScheduler(searcher, max_batch=4, max_delay_us=500.0) as scheduler:
            want = scheduler.submit(QUERIES[0], k=3).result(timeout=30.0)
            generation = scheduler.snapshot_lane(tmp_path)
            assert os.path.isdir(generation)
        searcher.close()
        restored = make_sharded().restore(tmp_path)
        with MicroBatchScheduler(restored, max_batch=4, max_delay_us=500.0) as scheduler:
            got = scheduler.submit(QUERIES[0], k=3).result(timeout=30.0)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.scores, want.scores)
        restored.close()

    def test_snapshot_lane_requires_a_sharded_searcher(self, tmp_path):
        from repro.core import SoftwareSearcher
        from repro.serving import MicroBatchScheduler

        flat = SoftwareSearcher("euclidean").fit(base_data()[0])
        with MicroBatchScheduler(flat) as scheduler:
            with pytest.raises(ConfigurationError):
                scheduler.snapshot_lane(tmp_path)


# ----------------------------------------------------------------------
# Crash and corruption chaos
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import sys
import numpy as np
from repro.core import make_searcher

directory = sys.argv[1]
rng = np.random.default_rng(101)
features = rng.normal(size=({rows}, {num_features}))
labels = rng.integers(0, 5, {rows})
searcher = make_searcher(
    "mcam-3bit", num_features={num_features}, seed=7, shards=3,
    executor="serial", appendable=True,
)
searcher.fit(features, labels)
searcher.enable_durability(directory)
searcher.snapshot()
print("READY", flush=True)
for seq in range(1, 100_000):
    row_rng = np.random.default_rng(1_000 + seq)
    searcher.append(row_rng.normal(size=(1, {num_features})), row_rng.integers(0, 5, 1))
    # The append has returned: the row is fsync'd in the journal, so this
    # acknowledgement must survive the parent's kill -9.
    print("ACK", seq, flush=True)
""".format(rows=BASE_ROWS, num_features=FEATURES)


@pytest.mark.chaos
class TestCrashChaos:
    def test_kill9_mid_append_burst_loses_no_acknowledged_append(self, tmp_path):
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        acked = 0
        try:
            deadline = time.monotonic() + 120.0
            assert child.stdout is not None
            for line in child.stdout:
                if line.startswith("ACK"):
                    acked = int(line.split()[1])
                if acked >= 5 or time.monotonic() > deadline:
                    break
            assert acked >= 5, "child never reached the append burst"
            os.kill(child.pid, signal.SIGKILL)
            # Acknowledgements already in the pipe when the kill landed
            # still count: drain them so the loss check is honest.
            for line in child.stdout:
                if line.startswith("ACK"):
                    acked = int(line.split()[1])
        finally:
            if child.poll() is None:
                child.kill()
            child.wait(timeout=30.0)
            if child.stdout is not None:
                child.stdout.close()

        restored = make_sharded().restore(tmp_path)
        recovered = restored.num_entries - BASE_ROWS
        # Zero acknowledged-append loss; appends past the last drained ACK
        # may also have survived (they were durable, just unreported).
        assert recovered >= acked
        # Bitwise identity against a searcher that never crashed: fit the
        # same base and replay the same rows through the live append path.
        reference = make_sharded()
        reference.fit(*base_data())
        for seq in range(1, recovered + 1):
            reference.append(*append_row(seq))
        assert_bitwise(
            restored.kneighbors_batch(QUERIES, k=3),
            reference.kneighbors_batch(QUERIES, k=3),
        )
        restored.close()
        reference.close()

    def test_torn_journal_tail_fault_recovers_records_before_the_tear(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.append(*append_row(1))
        searcher.append(*append_row(2))
        # Fires after the third record lands: the injector tears the tail
        # mid-frame, exactly what kill -9 during the write leaves behind.
        injector = FaultInjector().arm("torn_journal_tail")
        searcher._journal.fault_injector = injector
        searcher.append(*append_row(3))
        searcher.close()
        assert [fired["fault"] for fired in injector.fired] == ["torn_journal_tail"]
        restored = make_sharded().restore(tmp_path)
        assert restored.num_entries == BASE_ROWS + 2
        reference = make_sharded()
        reference.fit(*base_data())
        reference.append(*append_row(1))
        reference.append(*append_row(2))
        assert_bitwise(
            restored.kneighbors_batch(QUERIES, k=3),
            reference.kneighbors_batch(QUERIES, k=3),
        )
        restored.close()
        reference.close()

    @pytest.mark.parametrize("fault", ["corrupt_snapshot", "drop_manifest"])
    def test_snapshot_corruption_fails_typed_never_partial(self, tmp_path, fault):
        searcher = fitted_searcher(tmp_path)
        injector = FaultInjector().arm(fault)
        searcher.storage_fault_injector = injector
        searcher.snapshot()
        searcher.close()
        assert [fired["fault"] for fired in injector.fired] == [fault]
        with pytest.raises(SnapshotIntegrityError):
            make_sharded().restore(tmp_path)
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(str(tmp_path))

    def test_corrupt_store_file_fails_typed(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        generation = searcher.snapshot()
        searcher.close()
        scribble(os.path.join(generation, "store.pkl"))
        with pytest.raises(SnapshotIntegrityError):
            make_sharded().restore(tmp_path)


# ----------------------------------------------------------------------
# Cold-tenant eviction-to-disk
# ----------------------------------------------------------------------
class TestColdTenantPool:
    def admit_tenants(self, pool, executor, count, k=2):
        """Admit ``count`` fitted tenants, returning their reference results."""
        want = {}
        for index in range(count):
            tenant_id = f"tenant-{index}"
            searcher = make_sharded(executor=executor, seed=7 + index)
            rng = np.random.default_rng(200 + index)
            searcher.fit(
                rng.normal(size=(BASE_ROWS, FEATURES)), rng.integers(0, 5, BASE_ROWS)
            )
            want[tenant_id] = searcher.kneighbors_batch(QUERIES, k=k)
            directory = pool.admit(tenant_id, searcher)
            searcher.enable_durability(directory)
        return want

    def test_serves_2n_tenants_on_n_capacity_bitwise(self, tmp_path):
        with ProcessShardExecutor(num_workers=2) as executor:
            with ColdTenantPool(executor, tmp_path, capacity=2) as pool:
                want = self.admit_tenants(pool, executor, count=4)
                assert len(pool.resident_tenants) == 2
                assert pool.evictions == 2
                # Every tenant — resident or hibernated — serves bitwise.
                for tenant_id, expected in want.items():
                    got = pool.kneighbors_batch(tenant_id, QUERIES, k=2)
                    assert_bitwise(got, expected)
                assert pool.restores >= 2
                # Two full LRU cycles: re-restores stay bitwise.
                for tenant_id, expected in want.items():
                    assert_bitwise(pool.kneighbors_batch(tenant_id, QUERIES, k=2), expected)

    def test_lease_pins_against_eviction(self, tmp_path):
        with ProcessShardExecutor(num_workers=1) as executor:
            with ColdTenantPool(executor, tmp_path, capacity=1) as pool:
                self.admit_tenants(pool, executor, count=1)
                with pool.lease("tenant-0") as leased:
                    # Admitting a second tenant would evict the coldest —
                    # but tenant-0 is pinned, so capacity overshoots.
                    searcher = make_sharded(executor=executor, seed=99)
                    searcher.fit(*base_data())
                    pool.admit("tenant-x", searcher)
                    assert "tenant-0" in pool.resident_tenants
                    assert leased.num_shards > 0
                # Lease returned: the pool settles back under capacity.
                assert len(pool.resident_tenants) == 1

    def test_dispatch_traffic_refreshes_lru_recency(self, tmp_path):
        with ProcessShardExecutor(num_workers=1) as executor:
            with ColdTenantPool(executor, tmp_path, capacity=2) as pool:
                self.admit_tenants(pool, executor, count=2)
                assert executor.tenant_policy is pool
                # Direct serving traffic (not via lease) touches tenant-0,
                # making tenant-1 the LRU eviction candidate.
                with pool.lease("tenant-0") as searcher:
                    pass
                with pool.lease("tenant-1"):
                    pass
                searcher.kneighbors_batch(QUERIES, k=2)  # dispatch == touch
                third = make_sharded(executor=executor, seed=42)
                third.fit(*base_data())
                pool.admit("tenant-z", third)
                assert "tenant-0" in pool.resident_tenants
                assert "tenant-1" not in pool.resident_tenants

    def test_concurrent_leases_race_eviction_safely(self, tmp_path):
        with ProcessShardExecutor(num_workers=2) as executor:
            with ColdTenantPool(executor, tmp_path, capacity=1) as pool:
                want = self.admit_tenants(pool, executor, count=3)
                errors = []

                def hammer(tenant_id, expected):
                    try:
                        for _ in range(4):
                            got = pool.kneighbors_batch(tenant_id, QUERIES, k=2)
                            assert_bitwise(got, expected)
                    except Exception as exc:  # surfaced to the main thread
                        errors.append(exc)

                threads = [
                    threading.Thread(target=hammer, args=item) for item in want.items()
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert errors == []
                assert len(pool.resident_tenants) >= 1

    def test_admit_validation(self, tmp_path):
        with ProcessShardExecutor(num_workers=1) as executor:
            with ColdTenantPool(executor, tmp_path, capacity=1) as pool:
                searcher = make_sharded(executor=executor)
                searcher.fit(*base_data())
                pool.admit("tenant-0", searcher)
                with pytest.raises(ConfigurationError):
                    pool.admit("tenant-0", searcher)  # duplicate id
                # Anything that could traverse out of the pool root is
                # rejected by the allowlist, not just os.sep: '..' would
                # make hibernate() write into (and delete snap-* from)
                # the pool root's PARENT directory.
                for bad in ("", ".", "..", f"evil{os.sep}path", "evil\\path", "a b"):
                    with pytest.raises(ConfigurationError):
                        pool.admit(bad, searcher)
                with pytest.raises(ConfigurationError):
                    pool.kneighbors_batch("who", QUERIES)
            with pytest.raises(ConfigurationError):
                pool.kneighbors_batch("tenant-0", QUERIES)  # closed

    def test_close_skips_pinned_tenants_until_their_lease_returns(self, tmp_path):
        with ProcessShardExecutor(num_workers=1) as executor:
            pool = ColdTenantPool(executor, tmp_path, capacity=2)
            want = self.admit_tenants(pool, executor, count=2)
            with pool.lease("tenant-0") as leased:
                pool.close()
                # The unpinned tenant hibernated; the leased one keeps its
                # state — close() never pulls shards out from under a live
                # lease — and still serves bitwise.
                assert "tenant-1" not in pool.resident_tenants
                assert "tenant-0" in pool.resident_tenants
                assert_bitwise(leased.kneighbors_batch(QUERIES, k=2), want["tenant-0"])
            # Lease returned: the deferred hibernation landed, and the
            # snapshot it wrote restores bitwise.
            assert pool.resident_tenants == ()
            restored = make_sharded(executor=executor).restore(
                pool.tenant_directory("tenant-0")
            )
            assert_bitwise(restored.kneighbors_batch(QUERIES, k=2), want["tenant-0"])
            restored.close()

    def test_close_hibernates_everything_and_restores_on_reopen(self, tmp_path):
        with ProcessShardExecutor(num_workers=1) as executor:
            pool = ColdTenantPool(executor, tmp_path, capacity=2)
            want = self.admit_tenants(pool, executor, count=2)
            pool.close()
            assert pool.resident_tenants == ()
            assert executor.tenant_policy is None
            # The snapshots it left behind restore into fresh searchers.
            for tenant_id, expected in want.items():
                restored = make_sharded(executor=executor).restore(
                    pool.tenant_directory(tenant_id)
                )
                assert_bitwise(restored.kneighbors_batch(QUERIES, k=2), expected)
                restored.close()


# ----------------------------------------------------------------------
# Atomic write helpers (satellite)
# ----------------------------------------------------------------------
class TestAtomicIO:
    def test_save_json_replaces_atomically_and_leaves_no_tmp(self, tmp_path):
        from repro.utils.io import load_json, save_json

        target = tmp_path / "manifest.json"
        save_json({"value": 1}, target)
        save_json({"value": 2}, target, fsync=True)
        assert load_json(target) == {"value": 2}
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_save_csv_replaces_atomically_and_leaves_no_tmp(self, tmp_path):
        from repro.utils.io import load_csv, save_csv

        target = tmp_path / "table.csv"
        save_csv([{"a": 1, "b": 2}], target)
        save_csv([{"a": 3, "b": 4}], target)
        rows = load_csv(target)
        assert len(rows) == 1 and rows[0]["a"] == "3"
        assert os.listdir(tmp_path) == ["table.csv"]

    def test_manifest_is_written_through_atomic_save_json(self, tmp_path):
        searcher = fitted_searcher(tmp_path)
        searcher.snapshot()
        searcher.close()
        leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        assert leftovers == []
        assert MANIFEST_NAME in os.listdir(tmp_path)
