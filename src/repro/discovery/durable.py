"""Crash-durable discovery runs: on-disk checkpoints and exact resume.

PR 1 made the pipeline *interruption-aware*: a terminal phase failure
raises :class:`~repro.discovery.driver.DiscoveryInterrupted` carrying an
in-memory :class:`~repro.discovery.driver.DiscoveryCheckpoint`.  That
checkpoint dies with the process -- and the discovery unit is exactly
the workload where processes die: a long-running probe loop against a
slow, flaky remote target.  This module persists the checkpoint to a
**run directory** so ``repro discover --resume RUNDIR`` restarts after a
``kill -9`` and produces a spec bit-for-bit identical to an
uninterrupted run.

Layout of a run directory::

    RUNDIR/
      run.json              # schema, target, and the full machine config
      ckpt-000001.bin       # full snapshots, newest wins
      journal-000001.log    # records appended since snapshot 1
      ckpt-000002.bin
      journal-000002.log
      progress.json         # advisory progress sidecar (never loaded)

A **snapshot** is the whole checkpoint state; it is written at the start
of every run, at phase boundaries whose effects the journal cannot
express, and on interrupt.  Between snapshots, every completion record
of a record phase (the fan-out phases plus region extraction) and every
phase whose result is a handful of fields is **appended** to the
snapshot's journal: one framed, checksummed,
portable-encoded entry, fsynced before the next task starts.  A commit
therefore costs the chunk it records, not the whole run.

Four guarantees:

* **Atomic snapshots.**  A snapshot is written to a temp file, flushed
  and fsynced, then published with an atomic ``os.replace`` (and a
  directory fsync where the platform supports it).  A crash mid-commit
  leaves at worst a stray ``*.tmp`` file, never a half-written
  generation under a committed name.
* **Corruption fallback.**  Every snapshot carries a magic string, a
  schema version and a SHA-256 of its payload.  The loader walks
  generations newest-first and returns the first one that validates;
  truncated files, foreign schema versions and torn headers are
  reported as warnings, never exceptions.  The previous good generation
  (and its journal) is kept on disk for exactly this reason.
* **Prefix replay.**  A journal names the snapshot it extends (generation
  and snapshot digest) and is replayed up to its first torn or corrupt
  entry, with a warning for whatever it skips; a journal that belongs to
  no loadable snapshot is ignored.  A crash therefore loses at most the
  chunk in flight, plus any phases completed since the newest snapshot
  that the journal does not describe (those re-run on resume).
* **Exact mid-phase resume.**  Record payloads carry everything their
  chunk changed, and the live run and the replay apply them through the
  same function (:func:`repro.discovery.driver.apply_record`), so a
  resumed run re-does only the work whose records never landed.

Serialisation is the **portable structured codec**
(:mod:`repro.discovery.portable`): deterministic, closed-world tagged
JSON, so *any* worker on *any* build can adopt the run -- the property
the campaign supervisor's crash adoption rests on.  Only schema-2
(portable) snapshots load; anything else, including the pickle-bodied
schema 1, is skipped with a warning and never decoded.  Target
connections are *not* serialised -- the codec excludes them and the
driver rebinds the corpus to its freshly opened connection on resume;
:func:`machine_from_config` rebuilds the same connection stack (fault
plan, latency, fuel) from ``run.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import struct
import tempfile
from contextlib import contextmanager

from repro.discovery import portable
from repro.errors import DiscoveryError

#: bump when the checkpoint payload layout changes.  Schema 2 is the
#: portable structured codec; any other schema is foreign.
CHECKPOINT_SCHEMA = 2

#: first bytes of every checkpoint generation
MAGIC = b"repro-checkpoint\n"

#: first bytes of every journal; a JSON header line naming the snapshot
#: follows, then the entries
JOURNAL_MAGIC = b"repro-journal\n"

#: one journal entry's frame: payload length, then its SHA-256
ENTRY_FRAME = struct.Struct(">I32s")

#: committed generations kept on disk; older ones are pruned after a
#: successful commit, so corruption of the newest can always fall back
KEEP_GENERATIONS = 2

RUN_MANIFEST = "run.json"

#: lightweight progress sidecar, rewritten (by atomic rename, without
#: fsync) at every snapshot, journal entry and phase boundary.
#: Like the lease it is runtime state: outside the generation glob,
#: never read by the loader, carrying nothing spec-affecting -- it
#: exists so the service control plane (and ``repro client status``)
#: can report typed progress without thawing a full checkpoint body.
PROGRESS_FILE = "progress.json"


class CheckpointCorrupt(DiscoveryError):
    """One checkpoint generation failed validation (the loader falls
    back to an older generation; this never escapes :meth:`DurableRun.
    load_checkpoint`)."""


# -- machine-config introspection and reconstruction -------------------


def run_config(discovery):
    """The ``run.json`` payload for a driver: everything needed to
    rebuild the same machine stack and driver knobs on resume."""
    config = {
        "schema": CHECKPOINT_SCHEMA,
        "target": discovery.machine.target,
        "seed": discovery.seed,
        "ri_budget": discovery.ri_budget,
        "use_likelihood": discovery.use_likelihood,
        "workers": discovery.workers,
        "adaptive_workers": getattr(discovery, "adaptive_workers", False),
        "extract_procs": discovery.extractor.procs,
        "extract_memo": discovery.extractor.memo_enabled,
        "checkpoint_every": discovery.checkpoint_every,
        "flaky": 0.0,
        "fault_seed": None,
        "latency": 0.0,
        "fuel": None,
        "max_retries": None,
        "votes": None,
        "cache_dir": None,
        "cache_url": None,
    }
    if discovery.resilience is not None:
        config["max_retries"] = discovery.resilience.max_retries
        config["votes"] = discovery.resilience.votes
    cache = discovery.cache
    if cache is not None and getattr(cache, "directory", None) is not None:
        config["cache_dir"] = str(cache.directory)
    if cache is not None and getattr(cache, "url", None) is not None:
        config["cache_url"] = str(cache.url)
    layer = discovery.machine
    while layer is not None:
        plan = getattr(layer, "plan", None)
        if plan is not None and hasattr(plan, "rate"):
            config["flaky"] = plan.rate
            config["fault_seed"] = plan.seed
        if getattr(layer, "latency", None) is not None and hasattr(layer, "fuel"):
            config["latency"] = layer.latency
            config["fuel"] = layer.fuel
        layer = getattr(layer, "inner", None)
    return config


def machine_from_config(config):
    """Rebuild the (possibly fault-injected) target machine a run was
    started against.  Returns ``(machine, resilience_config)``; the
    resilience wrapper itself is applied by the driver, as on a fresh
    run."""
    from repro.discovery.resilience import ResilienceConfig
    from repro.machines.restore import machine_from_manifest

    machine = machine_from_manifest(config)
    resilience = ResilienceConfig()
    if config.get("max_retries") is not None:
        resilience.max_retries = config["max_retries"]
    if config.get("votes") is not None:
        resilience.votes = config["votes"]
    return machine, resilience


# -- checkpoint serialisation ------------------------------------------


@contextmanager
def detach_runtime(checkpoint):
    """Temporarily strip live target connections from a checkpoint
    before serialising; restores them before returning control (the
    driver keeps using the same objects after a commit).  The portable
    codec also excludes these fields by registry policy -- this guard
    keeps the invariant visible at the call site and covers any future
    payload that aliases the corpus connection."""
    corpus = checkpoint.report.corpus
    if corpus is None:
        yield checkpoint
        return
    saved_machine = corpus.machine
    saved_cache = corpus._init_cache
    corpus.machine = None
    corpus._init_cache = {}
    try:
        yield checkpoint
    finally:
        corpus.machine = saved_machine
        corpus._init_cache = saved_cache


def freeze_body(checkpoint):
    """The portable payload bytes of a checkpoint -- deterministic, so
    equal checkpoints freeze to equal bytes on every build (this is
    what the lease-hygiene tests hash)."""
    with detach_runtime(checkpoint):
        return portable.dumps(
            {
                "target": checkpoint.target,
                "completed": list(checkpoint.completed),
                "state": checkpoint.state,
                "report": checkpoint.report,
            }
        )


def freeze_checkpoint(checkpoint):
    """Serialise a checkpoint into a self-validating binary blob."""
    payload = freeze_body(checkpoint)
    header = json.dumps(
        {
            "schema": CHECKPOINT_SCHEMA,
            "format": portable.PORTABLE_FORMAT,
            "target": checkpoint.target,
            "length": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return MAGIC + header + b"\n" + payload


def parse_envelope(blob):
    """Validate a generation's envelope; ``(header, payload)`` on
    success, :class:`CheckpointCorrupt` on any defect."""
    if not blob.startswith(MAGIC):
        raise CheckpointCorrupt("bad magic (not a checkpoint file)")
    stream = io.BytesIO(blob[len(MAGIC) :])
    header_line = stream.readline()
    try:
        header = json.loads(header_line)
    except ValueError as exc:
        raise CheckpointCorrupt(f"unparsable header: {exc}") from exc
    payload = stream.read()
    if len(payload) != header.get("length"):
        raise CheckpointCorrupt(
            f"truncated payload: {len(payload)} of {header.get('length')} bytes"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CheckpointCorrupt("payload checksum mismatch")
    return header, payload


def thaw_checkpoint(blob):
    """Validate and deserialise one checkpoint generation.  Raises
    :class:`CheckpointCorrupt` on any defect, including a schema other
    than :data:`CHECKPOINT_SCHEMA`; the caller falls back.  Payloads
    decode through the portable codec only -- never pickle."""
    from repro.discovery.driver import DiscoveryCheckpoint

    header, payload = parse_envelope(blob)
    schema = header.get("schema")
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointCorrupt(
            f"schema version {schema!r} (this build reads {CHECKPOINT_SCHEMA})"
        )
    try:
        data = portable.loads(payload)
    except portable.PortableError as exc:
        raise CheckpointCorrupt(f"payload does not decode: {exc}") from exc
    return DiscoveryCheckpoint(
        target=data["target"],
        completed=data["completed"],
        report=data["report"],
        state=data["state"],
    )


def frame_entry(entry):
    """One journal entry's bytes: frame header plus portable payload."""
    payload = portable.dumps(entry)
    return ENTRY_FRAME.pack(len(payload), hashlib.sha256(payload).digest()) + payload


def read_entries(blob):
    """Decode a journal body (the bytes after its header line) into
    ``(entries, problem)``: every entry up to the first torn or corrupt
    one, and a description of that defect (None when the whole body
    replays)."""
    entries, offset = [], 0
    while offset < len(blob):
        index = len(entries)
        if len(blob) - offset < ENTRY_FRAME.size:
            return entries, f"torn tail at entry {index} ({len(blob) - offset} bytes)"
        length, digest = ENTRY_FRAME.unpack_from(blob, offset)
        start = offset + ENTRY_FRAME.size
        payload = blob[start : start + length]
        if len(payload) < length:
            return entries, (
                f"torn tail at entry {index} ({len(payload)} of {length} bytes)"
            )
        if hashlib.sha256(payload).digest() != digest:
            return entries, (
                f"entry {index} fails its checksum; "
                f"{len(blob) - offset} bytes not replayed"
            )
        try:
            entries.append(portable.loads(payload))
        except portable.PortableError as exc:
            return entries, f"entry {index} does not decode: {exc}"
        offset = start + length
    return entries, None


# -- the run directory -------------------------------------------------


def _fsync_directory(path):
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class DurableRun:
    """One discovery run's on-disk home: manifest, snapshot generations
    and the journal of the newest snapshot."""

    def __init__(self, directory, config=None):
        self.directory = pathlib.Path(directory)
        self.config = config
        #: snapshots written through this handle (plus generations found
        #: on disk when opened) and journal entries appended through it
        self.commits = 0
        self.appends = 0
        self._journal = None  # journal of the newest snapshot written here
        self._progress = None  # the progress sidecar's payload

    # -- construction --------------------------------------------------

    @classmethod
    def attach(cls, directory, config):
        """Create (or re-open) a run directory for a fresh run.  A
        pre-existing manifest must agree on the target -- resuming a
        ``vax`` run against ``mips`` answers would corrupt both."""
        run = cls(directory, config=dict(config))
        run.directory.mkdir(parents=True, exist_ok=True)
        manifest = run.directory / RUN_MANIFEST
        if manifest.exists():
            existing = cls.open(directory)
            if existing.config.get("target") != config.get("target"):
                raise DiscoveryError(
                    f"run directory {run.directory} belongs to target "
                    f"{existing.config.get('target')!r}, not {config.get('target')!r}"
                )
            run.config = existing.config
        else:
            run._write_manifest()
        run.commits = len(run.generations())
        return run

    @classmethod
    def open(cls, directory):
        """Open an existing run directory (the ``--resume`` path)."""
        run = cls(directory)
        manifest = run.directory / RUN_MANIFEST
        if not manifest.exists():
            raise DiscoveryError(f"no {RUN_MANIFEST} in {run.directory}")
        try:
            run.config = json.loads(manifest.read_text())
        except ValueError as exc:
            raise DiscoveryError(
                f"unreadable {RUN_MANIFEST} in {run.directory}: {exc}"
            ) from exc
        run.commits = len(run.generations())
        return run

    def _write_manifest(self):
        self._atomic_write(
            self.directory / RUN_MANIFEST,
            (json.dumps(self.config, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )

    # -- snapshots -----------------------------------------------------

    def generations(self):
        """Committed snapshot paths, oldest first."""
        return sorted(self.directory.glob("ckpt-*.bin"))

    def journal_path(self, generation):
        """Where the journal extending snapshot *generation* lives (the
        name deliberately stays outside the ``ckpt-*.bin`` glob)."""
        return self.directory / f"journal-{generation:06d}.log"

    @staticmethod
    def _generation_of(path):
        try:
            return int(path.stem.split("-")[-1])
        except ValueError:
            return None

    def _next_generation(self):
        paths = self.generations()
        if not paths:
            return 1
        last = self._generation_of(paths[-1])
        return len(paths) + 1 if last is None else last + 1

    def _atomic_write(self, path, blob, durable=True):
        fd, tmp = tempfile.mkstemp(
            dir=str(self.directory), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                if durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if durable:
            _fsync_directory(self.directory)

    def commit(self, checkpoint):
        """Durably publish a checkpoint as the newest snapshot, open its
        (empty) journal, then prune generations -- and their journals --
        beyond :data:`KEEP_GENERATIONS`."""
        blob = freeze_checkpoint(checkpoint)
        generation = self._next_generation()
        path = self.directory / f"ckpt-{generation:06d}.bin"
        self._atomic_write(path, blob)
        self._open_journal(generation, blob)
        self.commits += 1
        kept = set()
        for index, snapshot in enumerate(reversed(self.generations())):
            if index < KEEP_GENERATIONS:
                kept.add(self._generation_of(snapshot))
                continue
            _unlink(snapshot)
        for journal in self.directory.glob("journal-*.log"):
            if self._generation_of(journal) not in kept:
                _unlink(journal)
        # Record counts carry over from earlier snapshots of this handle:
        # completed phases drop their records from the state.
        records = dict(self._progress["phase_records"]) if self._progress else {}
        for phase, store in (checkpoint.state.get("progress") or {}).items():
            records[phase] = len(store)
        self._progress = {
            "target": checkpoint.target,
            "generation": generation,
            "completed": list(checkpoint.completed),
            "phase_records": records,
        }
        self._write_progress()
        return path

    # -- the journal ---------------------------------------------------

    def _open_journal(self, generation, snapshot):
        """Start the journal of a fresh snapshot: a header binding it to
        that snapshot's generation and bytes, published atomically."""
        header = json.dumps(
            {
                "generation": generation,
                "snapshot_sha256": hashlib.sha256(snapshot).hexdigest(),
            },
            sort_keys=True,
        ).encode("utf-8")
        self._journal = self.journal_path(generation)
        self._atomic_write(self._journal, JOURNAL_MAGIC + header + b"\n")

    def _append(self, entry):
        if self._journal is None:
            raise DiscoveryError(
                f"no snapshot committed through {self.directory} to journal against"
            )
        with open(self._journal, "ab") as handle:
            handle.write(frame_entry(entry))
            handle.flush()
            os.fsync(handle.fileno())
        self.appends += 1

    def append_record(self, phase, key, payload):
        """Durably append one fan-out completion record; it is on disk
        before this returns, so before the next task starts."""
        self._append({"kind": "record", "phase": phase, "key": key, "payload": payload})
        records = self._progress["phase_records"]
        records[phase] = records.get(phase, 0) + 1
        self._write_progress()

    def append_done(self, phase, result):
        """Durably append a completed phase and the fields it set
        (``[(path, value), ...]``, see :func:`repro.discovery.driver.
        phase_result`)."""
        self._append({"kind": "done", "phase": phase, "result": result})

    # -- the progress sidecar ------------------------------------------

    def note_completed(self, completed):
        """Advertise the live run's completed phases in the sidecar
        (phases whose effects only the next snapshot will make durable
        included -- the sidecar is advisory)."""
        if self._progress is not None:
            self._progress["completed"] = list(completed)
            self._write_progress()

    def _write_progress(self):
        """The :data:`PROGRESS_FILE` sidecar: completed phases plus
        per-phase completion-record counts, kept current from what this
        handle wrote.  Atomic rename but no fsync: the loader never
        reads it, so losing it to a power cut costs nothing."""
        try:
            self._atomic_write(
                self.directory / PROGRESS_FILE,
                (json.dumps(self._progress, indent=2, sort_keys=True) + "\n").encode(
                    "utf-8"
                ),
                durable=False,
            )
        except OSError:
            pass  # progress is advisory; never fail a commit over it

    def read_progress(self):
        """The progress sidecar as a dict, or None (pre-sidecar run
        directories, torn writes)."""
        try:
            return json.loads((self.directory / PROGRESS_FILE).read_text())
        except (OSError, ValueError):
            return None

    # -- loading -------------------------------------------------------

    def load_checkpoint(self):
        """The newest snapshot that validates with its journal replayed,
        plus warnings for every generation or entry skipped on the way
        there.  ``(None, warnings)`` when no snapshot is loadable (the
        caller starts from scratch)."""
        warnings = []
        for path in reversed(self.generations()):
            try:
                blob = path.read_bytes()
                checkpoint = thaw_checkpoint(blob)
            except CheckpointCorrupt as exc:
                warnings.append(f"checkpoint {path.name} unusable: {exc}")
                continue
            except OSError as exc:
                warnings.append(f"checkpoint {path.name} unreadable: {exc}")
                continue
            if checkpoint.target != self.config.get("target"):
                warnings.append(
                    f"checkpoint {path.name} is for {checkpoint.target!r}, "
                    f"manifest says {self.config.get('target')!r}"
                )
                continue
            self._replay(self._generation_of(path), blob, checkpoint, warnings)
            return checkpoint, warnings
        for journal in sorted(self.directory.glob("journal-*.log")):
            try:
                blob = journal.read_bytes()
            except OSError:
                continue
            if blob[blob.find(b"\n", len(JOURNAL_MAGIC)) + 1 :]:
                warnings.append(
                    f"journal {journal.name} has entries but no loadable "
                    f"snapshot; ignored"
                )
        return None, warnings

    def _replay(self, generation, snapshot, checkpoint, warnings):
        """Apply the journal of snapshot *generation* to its thawed
        checkpoint, entry by entry, up to the first defect."""
        from repro.discovery.driver import replay_entry

        path = self.journal_path(generation)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return  # snapshot-only run directory: nothing to replay
        except OSError as exc:
            warnings.append(f"journal {path.name} unreadable: {exc}")
            return
        header_end = blob.find(b"\n", len(JOURNAL_MAGIC))
        try:
            if not blob.startswith(JOURNAL_MAGIC) or header_end < 0:
                raise ValueError("bad magic")
            header = json.loads(blob[len(JOURNAL_MAGIC) : header_end])
        except ValueError as exc:
            warnings.append(f"journal {path.name} ignored: unreadable header ({exc})")
            return
        if header.get("generation") != generation or header.get(
            "snapshot_sha256"
        ) != hashlib.sha256(snapshot).hexdigest():
            warnings.append(
                f"journal {path.name} ignored: it extends another snapshot "
                f"(generation {header.get('generation')!r})"
            )
            return
        entries, problem = read_entries(blob[header_end + 1 :])
        for entry in entries:
            replay_entry(checkpoint, entry)
        if problem is not None:
            warnings.append(
                f"journal {path.name}: replayed {len(entries)} entries, "
                f"stopped at {problem}"
            )

    def describe(self):
        gens = self.generations()
        newest = gens[-1].name if gens else "(no checkpoints yet)"
        return f"run directory {self.directory}: {len(gens)} generation(s), {newest}"


def _unlink(path):
    try:
        path.unlink()
    except OSError:
        pass


def auto_run_directory(target):
    """A freshly created fallback run directory, used to persist the
    checkpoint of an interrupted run that was started without
    ``--run-dir`` (satellite: the caller must never lose the checkpoint
    just because they did not plan for the crash)."""
    return tempfile.mkdtemp(prefix=f"repro-run-{target}-")


# -- per-sample completion records -------------------------------------


#: the record key of a fan-out phase's one-shot setup (the corpus for
#: sample generation, the precomputed engine for mutation analysis)
SETUP_KEY = "setup"


class PhaseProgress:
    """The per-sample completion records of one fan-out phase.

    Lives inside ``checkpoint.state["progress"][phase]`` -- a plain dict
    of record-key -> payload -- so it serialises with the checkpoint.
    ``record`` hands the payload to *apply* (the driver merges it into
    the live run and appends it to the journal -- the same merge a
    replay performs) and then notifies *on_record* with the record
    count, the harness's sample crash boundary.  A record is therefore
    durable before the next task starts, and a crash between records
    loses at most one chunk of work.  Without *apply* the payload is
    only stored.
    """

    def __init__(self, store, chunk=8, on_record=None, apply=None):
        self.store = store
        self.chunk = max(1, chunk)
        self.on_record = on_record
        self.apply = apply

    def recorded(self, key):
        """The payload recorded under *key*, or None."""
        return self.store.get(key)

    def setup(self, payload):
        """Record the phase's one-shot setup (no crash boundary)."""
        self._apply(SETUP_KEY, payload)

    def record(self, key, payload):
        self._apply(key, payload)
        if self.on_record is not None:
            self.on_record(self.count())
        return payload

    def _apply(self, key, payload):
        if self.apply is None:
            self.store[key] = payload
        else:
            self.apply(key, payload)

    def count(self):
        """Completion records so far (the setup record not counted)."""
        return len(self.store) - (SETUP_KEY in self.store)

    def next_key(self):
        """A fresh record key (monotonic across resume: keys are counted,
        never reused)."""
        return f"chunk-{self.count():05d}"

    def payloads(self):
        """All completion-record payloads, in record-key order."""
        return [self.store[key] for key in sorted(self.store) if key != SETUP_KEY]


def chunked(items, size):
    """Contiguous chunks of at most *size* items, preserving order."""
    items = list(items)
    size = max(1, size)
    return [items[i : i + size] for i in range(0, len(items), size)]
