"""The durable-checkpoint layer: envelope integrity, atomic commits,
corruption fallback, journal replay, and serialisation fidelity.

The crash-at-every-phase spec-identity sweep lives in
``test_crash_resume.py``; this file pins the storage layer itself --
what a snapshot and a journal *are*, what survives corruption, what
rides the checkpoint (quarantine reasons, progress records, rng
positions), how much a run writes, and the portable-schema contract:
a pickle-bodied schema-1 generation is skipped, never unpickled.
"""

import hashlib
import json
import pathlib
import pickle

import pytest

from repro.discovery.driver import (
    ArchitectureDiscovery,
    DiscoveryCheckpoint,
    DiscoveryInterrupted,
    DiscoveryReport,
)
from repro.discovery import durable
from repro.discovery.durable import (
    CHECKPOINT_SCHEMA,
    ENTRY_FRAME,
    KEEP_GENERATIONS,
    MAGIC,
    DurableRun,
    PhaseProgress,
    chunked,
    freeze_checkpoint,
    machine_from_config,
    parse_envelope,
    run_config,
    thaw_checkpoint,
)
from repro.errors import DiscoveryError, TargetError
from repro.machines.crashes import CrashPlan, SimulatedCrash
from repro.machines.machine import RemoteMachine


def _small_checkpoint(target="vax"):
    return DiscoveryCheckpoint(
        target=target,
        completed=["enquire", "assembler syntax"],
        report=DiscoveryReport(target=target),
        state={"progress": {"register discovery": {"chunk-00000": ["%r0"]}}},
    )


def _mid_run_checkpoint(tmp_path):
    """A real checkpoint captured by crashing mid mutation analysis."""
    rundir = tmp_path / "run"
    driver = ArchitectureDiscovery(
        RemoteMachine("vax"),
        workers=1,
        run_dir=str(rundir),
        crash_plan=CrashPlan.parse("sample:mutation_analysis:1"),
    )
    with pytest.raises(SimulatedCrash):
        driver.run()
    return DurableRun.open(str(rundir))


# -- envelope round-trip ------------------------------------------------


def test_freeze_thaw_round_trip():
    blob = freeze_checkpoint(_small_checkpoint())
    assert blob.startswith(MAGIC)
    thawed = thaw_checkpoint(blob)
    assert thawed.target == "vax"
    assert thawed.completed == ["enquire", "assembler syntax"]
    assert thawed.state["progress"]["register discovery"] == {
        "chunk-00000": ["%r0"]
    }


def test_detach_restores_live_connections():
    """Freezing must not leave the live run with its machine stripped."""
    driver = ArchitectureDiscovery(RemoteMachine("vax"), workers=1)
    report = driver.run()
    checkpoint = DiscoveryCheckpoint("vax", [], report, {})
    freeze_checkpoint(checkpoint)
    assert report.corpus.machine is not None


def test_mid_run_checkpoint_round_trips(tmp_path):
    """A checkpoint holding real analysis state (samples, the mutation
    engine mid-stream, the probe log) pickles and thaws whole."""
    run = _mid_run_checkpoint(tmp_path)
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    assert "register discovery" in checkpoint.completed
    assert "mutation analysis" not in checkpoint.completed
    assert checkpoint.report.corpus is not None
    assert checkpoint.report.corpus.machine is None  # detached on freeze
    assert checkpoint.report.engine is not None
    assert checkpoint.state["progress"]["mutation analysis"]


# -- run-directory mechanics --------------------------------------------


def test_commit_prunes_generations(tmp_path):
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    for _ in range(KEEP_GENERATIONS + 3):
        run.commit(_small_checkpoint())
    assert len(run.generations()) == KEEP_GENERATIONS
    # Generation numbers keep counting: names are never reused.
    assert run.generations()[-1].name == "ckpt-000005.bin"


def test_commit_leaves_no_temp_droppings(tmp_path):
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    run.commit(_small_checkpoint())
    leftovers = [p.name for p in (tmp_path / "run").iterdir()]
    assert not [name for name in leftovers if name.endswith(".tmp")]


def test_attach_rejects_foreign_target(tmp_path):
    DurableRun.attach(tmp_path / "run", {"target": "vax"})
    with pytest.raises(DiscoveryError):
        DurableRun.attach(tmp_path / "run", {"target": "mips"})


def test_open_requires_manifest(tmp_path):
    with pytest.raises(DiscoveryError):
        DurableRun.open(tmp_path)


def test_manifest_has_no_wall_clock(tmp_path):
    """run.json must be reconstructable, not a log: no timestamps."""
    driver = ArchitectureDiscovery(
        RemoteMachine("vax"), workers=1, run_dir=str(tmp_path / "run")
    )
    manifest = json.loads((tmp_path / "run" / "run.json").read_text())
    assert "time" not in json.dumps(manifest).lower()
    assert manifest["target"] == "vax"
    assert manifest["schema"] == CHECKPOINT_SCHEMA
    driver.scheduler.close()
    driver.extractor.close()


def test_machine_from_config_rebuilds_fault_stack():
    from repro.machines.faults import FaultyMachine
    from repro.discovery.resilience import ResilienceConfig

    machine = FaultyMachine(RemoteMachine("sparc"), rate=0.08, seed=99)
    driver = ArchitectureDiscovery(
        machine, resilience=ResilienceConfig(votes=3), workers=1
    )
    config = run_config(driver)
    driver.scheduler.close()
    driver.extractor.close()
    rebuilt, resilience = machine_from_config(config)
    assert isinstance(rebuilt, FaultyMachine)
    assert rebuilt.plan.rate == 0.08
    assert rebuilt.plan.seed == 99
    assert rebuilt.inner.target == "sparc"
    assert resilience.votes == 3


# -- corruption fallback (satellite: never a crash) ---------------------


def _committed_pair(tmp_path):
    """A run directory holding two good generations."""
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    run.commit(_small_checkpoint())
    good = _small_checkpoint()
    good.completed.append("sample generation")
    run.commit(good)
    return run


def test_truncated_newest_falls_back(tmp_path):
    run = _committed_pair(tmp_path)
    newest = run.generations()[-1]
    newest.write_bytes(newest.read_bytes()[:-40])
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is not None
    assert "sample generation" not in checkpoint.completed  # older generation
    assert any("truncated" in w for w in warnings)


def test_bad_schema_version_falls_back(tmp_path):
    run = _committed_pair(tmp_path)
    newest = run.generations()[-1]
    blob = newest.read_bytes()
    header_end = blob.index(b"\n", len(MAGIC))
    header = json.loads(blob[len(MAGIC) : header_end])
    header["schema"] = CHECKPOINT_SCHEMA + 1
    newest.write_bytes(
        MAGIC
        + json.dumps(header, sort_keys=True).encode()
        + blob[header_end:]
    )
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is not None
    assert any("schema" in w for w in warnings)


def test_partial_rename_garbage_falls_back(tmp_path):
    """A torn commit: the newest generation name holds garbage bytes
    (as if the crash hit between file creation and content landing)."""
    run = _committed_pair(tmp_path)
    torn = run.directory / f"ckpt-{run._next_generation():06d}.bin"
    torn.write_bytes(b"\x00\x17garbage, not a checkpoint")
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is not None
    assert checkpoint.completed[-1] == "sample generation"  # newest good
    assert any("magic" in w for w in warnings)


def test_checksum_flip_falls_back(tmp_path):
    run = _committed_pair(tmp_path)
    newest = run.generations()[-1]
    blob = bytearray(newest.read_bytes())
    blob[-1] ^= 0xFF
    newest.write_bytes(bytes(blob))
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is not None
    assert any("checksum" in w for w in warnings)


def test_every_generation_corrupt_returns_none(tmp_path):
    run = _committed_pair(tmp_path)
    for path in run.generations():
        path.write_bytes(b"junk")
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is None
    assert len(warnings) == 2


def test_checkpoint_for_wrong_target_skipped(tmp_path):
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    run.commit(_small_checkpoint(target="vax"))
    # Simulate a stray generation from another run copied in.
    blob = freeze_checkpoint(_small_checkpoint(target="mips"))
    (run.directory / "ckpt-000009.bin").write_bytes(blob)
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint.target == "vax"
    assert any("mips" in w for w in warnings)


# -- interrupt auto-persist (satellite) ---------------------------------


class _Poisoned(RemoteMachine):
    """Compiles everything except the marked literal sample."""

    def compile_c(self, source, headers=None):
        if "34117" in source:
            raise TargetError("poisoned compile")
        return super().compile_c(source, headers)


class _DiesAtFrames(ArchitectureDiscovery):
    def _phase_frames(self, report, state):
        raise TargetError("target rebooted")


def test_interrupt_persists_checkpoint_automatically(tmp_path):
    """DiscoveryInterrupted without --run-dir still lands on disk, and
    the exception message says where."""
    driver = _DiesAtFrames(RemoteMachine("vax"), workers=1)
    with pytest.raises(DiscoveryInterrupted) as excinfo:
        driver.run()
    exc = excinfo.value
    assert exc.checkpoint_path is not None
    assert exc.checkpoint_path in str(exc)
    assert "--resume" in str(exc)
    run = DurableRun.open(exc.checkpoint_path)
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    assert checkpoint.completed == exc.checkpoint.completed
    # And the saved checkpoint actually resumes to a finished spec.
    report = ArchitectureDiscovery(RemoteMachine("vax"), workers=1).run(
        resume=checkpoint
    )
    assert report.spec is not None


def test_interrupt_prefers_existing_run_dir(tmp_path):
    rundir = tmp_path / "run"
    driver = _DiesAtFrames(RemoteMachine("vax"), workers=1, run_dir=str(rundir))
    with pytest.raises(DiscoveryInterrupted) as excinfo:
        driver.run()
    assert pathlib.Path(excinfo.value.checkpoint_path) == rundir


# -- quarantine survives resume (satellite regression) ------------------


def test_quarantine_stays_quarantined_across_resume(tmp_path):
    """A sample quarantined before the crash must not be retried after
    resume: its ``discarded`` reason rides the checkpoint verbatim."""
    rundir = tmp_path / "run"
    driver = ArchitectureDiscovery(
        _Poisoned("vax"),
        workers=1,
        run_dir=str(rundir),
        crash_plan=CrashPlan.parse("sample:mutation_analysis:2"),
    )
    with pytest.raises(SimulatedCrash):
        driver.run()

    run = DurableRun.open(str(rundir))
    checkpoint, _ = run.load_checkpoint()
    [poisoned] = [
        s for s in checkpoint.report.corpus.samples if s.name == "int_lit_34117"
    ]
    assert poisoned.discarded is not None
    assert poisoned.discarded.startswith("quarantined (generation)")
    reason_at_crash = poisoned.discarded

    resumed = ArchitectureDiscovery(
        _Poisoned("vax"),
        workers=1,
        run_dir=run,
        checkpoint_every=run.config["checkpoint_every"],
    ).run(resume=checkpoint)
    [after] = [s for s in resumed.corpus.samples if s.name == "int_lit_34117"]
    assert after.discarded == reason_at_crash
    assert {"sample": "int_lit_34117", "reason": reason_at_crash} in (
        resumed.quarantined
    )

    # The resumed spec matches an uninterrupted equally-poisoned run.
    reference = ArchitectureDiscovery(_Poisoned("vax"), workers=1).run()
    assert resumed.spec.render_beg() == reference.spec.render_beg()
    assert {"sample": "int_lit_34117", "reason": reason_at_crash} in (
        reference.quarantined
    )


# -- the portable schema; pickle-era generations are foreign -------------


class _Tripwire:
    """Unpickling this touches a marker file -- proof of a pickle load."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (pathlib.Path.touch, (pathlib.Path(self.marker),))


def _pickled_blob(payload, schema):
    """A generation with a pickle body, shaped like the schema-1 files
    the pickle-era release wrote."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "schema": schema,
            "target": "vax",
            "length": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return MAGIC + header + b"\n" + body


def test_checkpoint_body_is_portable_json_not_pickle():
    blob = freeze_checkpoint(_small_checkpoint())
    header, payload = parse_envelope(blob)
    assert header["schema"] == CHECKPOINT_SCHEMA
    assert header["format"] == "portable/1"
    assert payload.startswith(b"{")  # canonical JSON, not a pickle opcode
    json.loads(payload)  # parses as plain JSON


def test_equal_checkpoints_freeze_to_equal_bytes():
    """Deterministic serialisation: the supervisor compares checkpoint
    checksums across workers, so equal state must mean equal bytes."""
    blob_a = freeze_checkpoint(_small_checkpoint())
    blob_b = freeze_checkpoint(_small_checkpoint())
    assert blob_a == blob_b


def _assert_pickle_generation_skipped(tmp_path, schema):
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    run.commit(_small_checkpoint())
    marker = tmp_path / "unpickled"
    blob = _pickled_blob({"target": "vax", "trap": _Tripwire(marker)}, schema)
    (run.directory / "ckpt-000002.bin").write_bytes(blob)
    checkpoint, warnings = run.load_checkpoint()
    assert not marker.exists()
    assert checkpoint is not None
    assert checkpoint.completed == ["enquire", "assembler syntax"]  # generation 1
    assert any(f"schema version {schema}" in w for w in warnings)


def test_legacy_pickle_generation_is_skipped_never_unpickled(tmp_path):
    """A schema-1 (pickle-era) generation gets the foreign-schema
    treatment: skipped with a warning, the older portable generation
    wins, and the body is never decoded."""
    _assert_pickle_generation_skipped(tmp_path, 1)


def test_unknown_future_schema_never_unpickles(tmp_path):
    """The same for a forged schema-0 header over a pickle body."""
    _assert_pickle_generation_skipped(tmp_path, 0)


def test_mid_run_checkpoint_is_cross_process_portable(tmp_path):
    """Thaw a real mid-run checkpoint purely from bytes, freeze it
    again, and land on identical bytes: no hidden live state."""
    run = _mid_run_checkpoint(tmp_path)
    blob = run.generations()[-1].read_bytes()
    _, payload = parse_envelope(blob)
    thawed = thaw_checkpoint(blob)
    assert freeze_checkpoint(thawed) == blob
    assert parse_envelope(freeze_checkpoint(thawed))[1] == payload


# -- progress records ----------------------------------------------------


def test_phase_progress_records_and_replays():
    store = {}
    seen = []
    progress = PhaseProgress(store, chunk=3, on_record=seen.append)
    assert progress.recorded("chunk-00000") is None
    progress.record(progress.next_key(), ["a", "b", "c"])
    progress.record(progress.next_key(), ["d"])
    assert seen == [1, 2]
    assert progress.payloads() == [["a", "b", "c"], ["d"]]
    # A resumed phase sees the same store through a fresh wrapper.
    replay = PhaseProgress(store, chunk=3)
    assert replay.recorded("chunk-00000") == ["a", "b", "c"]
    assert replay.next_key() == "chunk-00002"


def test_chunked_preserves_order_and_covers_everything():
    assert chunked(range(7), 3) == [[0, 1, 2], [3, 4, 5], [6]]
    assert chunked([], 3) == []
    assert chunked([1, 2], 0) == [[1], [2]]  # size clamps to 1


# -- the record journal --------------------------------------------------

_RI = "reverse interpretation"  # a record phase whose records are stored as-is


def _journaled_run(tmp_path, records=3):
    """A run directory with one snapshot and *records* journal entries."""
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    run.commit(_small_checkpoint())
    for index in range(records):
        run.append_record(_RI, f"shard-{index:05d}", [f"payload-{index}"])
    return run


def _entry_offsets(journal):
    """Byte offsets of every entry frame in a journal file."""
    blob = journal.read_bytes()
    offset = blob.index(b"\n", len(durable.JOURNAL_MAGIC)) + 1
    offsets = []
    while offset < len(blob):
        offsets.append(offset)
        length, _ = ENTRY_FRAME.unpack_from(blob, offset)
        offset += ENTRY_FRAME.size + length
    return offsets


def _replayed(checkpoint):
    return checkpoint.state["progress"].get(_RI, {})


def test_journal_replays_onto_its_snapshot(tmp_path):
    run = _journaled_run(tmp_path)
    assert [p.name for p in run.generations()] == ["ckpt-000001.bin"]
    assert run.journal_path(1).exists()
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    assert _replayed(checkpoint) == {
        f"shard-{i:05d}": [f"payload-{i}"] for i in range(3)
    }
    # the snapshot itself is untouched by appends
    assert _RI not in thaw_checkpoint(run.generations()[-1].read_bytes()).state[
        "progress"
    ]


def test_journal_done_entry_completes_a_phase(tmp_path):
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    run.commit(_small_checkpoint())
    run.append_done("graph matching", [(("state", "graph_roles"), {"k": "v"})])
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    assert checkpoint.completed[-1] == "graph matching"
    assert checkpoint.state["graph_roles"] == {"k": "v"}


def test_journal_torn_tail_entry_is_dropped(tmp_path):
    """A crash mid-append leaves a partial last frame: everything before
    it replays, the tail is reported, nothing raises."""
    run = _journaled_run(tmp_path)
    journal = run.journal_path(1)
    journal.write_bytes(journal.read_bytes()[:-5])
    checkpoint, warnings = run.load_checkpoint()
    assert sorted(_replayed(checkpoint)) == ["shard-00000", "shard-00001"]
    assert len(warnings) == 1 and "torn tail at entry 2" in warnings[0]


def test_journal_bit_flip_stops_replay_before_the_entry(tmp_path):
    """A corrupt middle entry: replay stops *before* it -- later entries
    are never applied out of order -- and says so."""
    run = _journaled_run(tmp_path)
    journal = run.journal_path(1)
    blob = bytearray(journal.read_bytes())
    blob[_entry_offsets(journal)[1] + ENTRY_FRAME.size + 3] ^= 0x20
    journal.write_bytes(bytes(blob))
    checkpoint, warnings = run.load_checkpoint()
    assert list(_replayed(checkpoint)) == ["shard-00000"]
    assert len(warnings) == 1
    assert "entry 1 fails its checksum" in warnings[0]


def test_journal_of_an_older_generation_is_ignored(tmp_path):
    """Entries journaled against snapshot 1 must never be replayed onto
    snapshot 2 -- not from their own file, and not from a file that
    claims the newer generation's name."""
    run = _journaled_run(tmp_path)
    stale = run.journal_path(1).read_bytes()
    run.commit(_small_checkpoint())
    (run.directory / "journal-000001.log").write_bytes(stale)  # left over
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    assert _replayed(checkpoint) == {}

    run.journal_path(2).write_bytes(stale)  # misfiled under generation 2
    checkpoint, warnings = run.load_checkpoint()
    assert _replayed(checkpoint) == {}
    assert len(warnings) == 1 and "extends another snapshot" in warnings[0]


def test_journal_without_a_snapshot_is_ignored(tmp_path):
    run = _journaled_run(tmp_path)
    run.generations()[-1].unlink()
    checkpoint, warnings = run.load_checkpoint()
    assert checkpoint is None
    assert warnings == [
        "journal journal-000001.log has entries but no loadable snapshot; ignored"
    ]


def test_retention_prunes_journals_with_their_snapshots(tmp_path):
    run = DurableRun.attach(tmp_path / "run", {"target": "vax"})
    for _ in range(KEEP_GENERATIONS + 2):
        run.commit(_small_checkpoint())
    journals = sorted(p.name for p in run.directory.glob("journal-*.log"))
    assert journals == ["journal-000003.log", "journal-000004.log"]


def test_progress_sidecar_counts_journaled_records(tmp_path):
    run = _journaled_run(tmp_path, records=2)
    progress = run.read_progress()
    assert progress["generation"] == 1
    assert progress["phase_records"] == {"register discovery": 1, _RI: 2}
    assert progress["completed"] == ["enquire", "assembler syntax"]


# -- what a durable run writes (deterministic scaling pin) --------------


def test_checkpoint_bytes_scale_with_chunks_not_the_run(tmp_path, monkeypatch):
    """A vax run with a run directory: full snapshots only at phase
    boundaries (at most one per completed phase, plus the run's opening
    one), every journal entry a small fraction of the final snapshot,
    and all checkpoint bytes together within 3x the final snapshot.
    Counts and sizes, never timings."""
    snapshots, entries = [], []
    freeze, frame = durable.freeze_checkpoint, durable.frame_entry

    def counted_freeze(checkpoint):
        blob = freeze(checkpoint)
        snapshots.append(len(blob))
        return blob

    def counted_frame(entry):
        blob = frame(entry)
        entries.append(len(blob))
        return blob

    monkeypatch.setattr(durable, "freeze_checkpoint", counted_freeze)
    monkeypatch.setattr(durable, "frame_entry", counted_frame)
    report = ArchitectureDiscovery(
        RemoteMachine("vax"), workers=1, run_dir=str(tmp_path / "run")
    ).run()
    assert report.spec is not None

    completed, _ = DurableRun.open(str(tmp_path / "run")).load_checkpoint()
    final = snapshots[-1]
    assert len(snapshots) <= len(completed.completed) + 1
    assert len(entries) > 100  # every fan-out chunk is journaled
    assert max(entries) <= 0.05 * final
    assert sum(snapshots) + sum(entries) <= 3 * final
