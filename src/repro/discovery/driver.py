"""The full Automatic Architecture Discovery pipeline.

``ArchitectureDiscovery(machine).run()`` performs, in order: the enquire
probes, assembler-syntax discovery, sample generation, register-universe
probing, region extraction, mutation-analysis preprocessing, graph
matching, reverse interpretation, branch/call/frame analyses, and
synthesis -- returning a :class:`DiscoveryReport` whose ``spec`` is a
machine description ready for the back-end generator.

This is the paper's Figure 1 retargeting entry point: the only inputs
are the target machine handle (its "internet address") and, implicitly,
the command lines its toolchain answers to.

Because that target is reached over a network, the driver assumes it is
*unreliable*: every remote verb is retried under a
:class:`~repro.discovery.resilience.RetryPolicy`, samples whose probes
fail terminally are **quarantined** (skipped and recorded, instead of
aborting the run), and the pipeline itself is a checkpointable phase
table -- a phase-level failure raises :class:`DiscoveryInterrupted`
carrying a :class:`DiscoveryCheckpoint` that ``run(resume=...)`` picks
up without redoing completed phases.

Because the *discovery process itself* can also die (kill -9, OOM, a
rebooted build host), the checkpoint is durable: pass ``run_dir=`` (CLI
``--run-dir``) and every ``checkpoint_every`` completed samples of a
record phase, and every completed phase, become durable -- as an entry
appended to the journal of the newest snapshot, or as a new snapshot
where the journal cannot express a phase's effects (see
:mod:`~repro.discovery.durable`).  ``repro discover --resume RUNDIR``
reloads the newest valid snapshot, replays its journal and produces a
spec bit-for-bit identical to an uninterrupted run; a
:class:`~repro.machines.crashes.CrashPlan` (``crash_plan=``) kills the
driver at any phase or sample boundary to prove it.

Because the target is *slow to reach* (round-trips dominate discovery
cost), the per-sample work -- sample realisation, register probing,
region extraction, mutation analysis, graph matching -- fans out over a
bounded pool of concurrent connections
(:class:`~repro.discovery.scheduler.ProbeScheduler`; ``workers=``, or
the ``REPRO_WORKERS`` environment variable), and every remote verb can
be memoised in a persistent content-addressed
:class:`~repro.discovery.cache.ProbeCache` (``cache=``) so repeat runs
skip remote compiles and executions entirely.  Results merge in sample
order with per-task seeded randomness, so the discovered description is
bit-for-bit identical for any worker count.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.discovery import probe
from repro.discovery.addresses import discover_address_map
from repro.discovery.branches import BranchAnalysis
from repro.discovery.cache import ProbeCache, make_caching
from repro.discovery.calling import CallAnalysis
from repro.discovery.durable import (
    SETUP_KEY,
    DurableRun,
    PhaseProgress,
    auto_run_directory,
    chunked,
    run_config,
)
from repro.discovery.enquire import enquire
from repro.discovery.extract_pool import ExtractionEngine
from repro.discovery.frames import discover_frame, discover_idioms
from repro.discovery.generator import SampleGenerator, realise_sample
from repro.discovery.lexer import extract_region
from repro.discovery.mutation import MutationEngine, MutationStats
from repro.discovery.preprocess import Preprocessor
from repro.discovery.resilience import ResilienceConfig, make_resilient
from repro.discovery.scheduler import ProbeScheduler, TargetConnectionPool
from repro.discovery.sizing import choose_workers, sample_verb_latency, sizing_record
from repro.discovery.syntax import DiscoveredSyntax
from repro.discovery.synthesize import Synthesizer
from repro.errors import DiscoveryError, TargetError

#: per-sample phases translate these into quarantine instead of aborting
_QUARANTINE_ERRORS = (DiscoveryError, TargetError)


@dataclass
class PhaseTiming:
    name: str
    seconds: float  # wall clock
    cpu_seconds: float = 0.0  # parent-process CPU (time.process_time)


@dataclass
class DiscoveryReport:
    target: str
    spec: object = None
    syntax: object = None
    enquire: object = None
    corpus: object = None
    addr_map: object = None
    extraction: object = None
    branch_model: object = None
    call_protocol: object = None
    frame_model: object = None
    engine: object = None
    timings: list = field(default_factory=list)
    machine_stats: object = None
    probe_log: object = None
    notes: list = field(default_factory=list)
    quarantined: list = field(default_factory=list)  # degraded-coverage record
    retry_stats: object = None  # resilience.RetryStats, when wrapped
    fault_stats: object = None  # faults.FaultStats, when injecting
    scheduler_stats: object = None  # scheduler.SchedulerStats
    cache_stats: object = None  # cache.CacheStats, when caching
    diagnostics: object = None  # analysis.DiagnosticSet from the lint phase
    extraction_stats: object = None  # extract_pool.ExtractionStats
    verify_stats: object = None  # analysis.verify obligation counts (dict)

    @property
    def phase_timings(self):
        """Per-phase wall and parent-CPU seconds, in phase order."""
        return {
            t.name: {
                "wall_s": round(t.seconds, 4),
                "cpu_s": round(t.cpu_seconds, 4),
            }
            for t in self.timings
        }

    def summary(self):
        """The headline numbers.  Every field is guarded: a report from
        an interrupted or degenerate run (no samples, no enquire data)
        summarises instead of dividing by zero or dereferencing None."""
        usable = sum(1 for s in self.corpus.samples if s.usable) if self.corpus else 0
        total = len(self.corpus.samples) if self.corpus else 0
        out = {
            "target": self.target,
            "word": (
                f"{self.enquire.word_bits}-bit {self.enquire.endian}-endian"
                if self.enquire
                else "?"
            ),
            "comment_char": self.syntax.comment_char if self.syntax else "?",
            "registers_discovered": len(self.syntax.registers) if self.syntax else 0,
            "samples": f"{usable}/{total} analysed",
            "usable_fraction": round(usable / total, 4) if total else 0.0,
            "instructions_discovered": len(self.extraction.semantics)
            if self.extraction
            else 0,
            "interpretations_tried": self.extraction.interpretations_tried
            if self.extraction
            else 0,
            "branch_rules": sorted(self.branch_model.rules) if self.branch_model else [],
            "call_protocol": self.call_protocol.describe() if self.call_protocol else "?",
            "target_executions": self.machine_stats.executions if self.machine_stats else 0,
            "total_seconds": round(sum(t.seconds for t in self.timings), 2),
            "quarantined_samples": len(self.quarantined),
        }
        if self.retry_stats is not None:
            out["retried_calls"] = self.retry_stats.retries
            out["transient_errors"] = self.retry_stats.transient_errors
            out["vote_runs"] = self.retry_stats.vote_runs
        if self.fault_stats is not None:
            out["faults_injected"] = self.fault_stats.injected
        if self.scheduler_stats is not None:
            out["workers"] = self.scheduler_stats.workers
            out["parallel_tasks"] = self.scheduler_stats.tasks
            out["max_in_flight"] = self.scheduler_stats.max_in_flight
        if self.cache_stats is not None:
            out["cache_hits"] = self.cache_stats.hits
            out["cache_misses"] = self.cache_stats.misses
            out["cache_hit_rate"] = round(self.cache_stats.hit_rate, 4)
            out["cache_evictions"] = self.cache_stats.evictions
            out["cache_corrupt_entries"] = self.cache_stats.corrupt_entries
        if self.extraction_stats is not None:
            out["extract_procs"] = self.extraction_stats.procs
            out["extract_shards"] = self.extraction_stats.shards
            out["extract_dispatched_shards"] = self.extraction_stats.dispatched_shards
            out["hypothesis_memo_hits"] = self.extraction_stats.memo_hits
            out["hypothesis_memo_hit_rate"] = round(
                self.extraction_stats.memo_hit_rate, 4
            )
            out["ri_budget_spent"] = self.extraction_stats.budget_spent
            out["ri_budget_unspent"] = self.extraction_stats.budget_unspent
        if self.quarantined:
            out["coverage"] = (
                f"degraded: {usable}/{total} samples analysed, "
                f"{len(self.quarantined)} quarantined"
            )
        if self.diagnostics is not None:
            counts = self.diagnostics.counts()
            out["lint_errors"] = counts.get("error", 0)
            out["lint_warnings"] = counts.get("warning", 0)
        if self.verify_stats is not None:
            out["verify_proven"] = self.verify_stats.get("proven", 0)
            out["verify_sampled"] = self.verify_stats.get("sampled", 0)
            out["verify_refuted"] = self.verify_stats.get("refuted", 0)
        return out

    def render_summary(self):
        lines = [f"=== architecture discovery report: {self.target} ==="]
        for key, value in self.summary().items():
            lines.append(f"  {key:26s}: {value}")
        lines.append("  phase timings:")
        for timing in self.timings:
            lines.append(
                f"    {timing.name:24s}: {timing.seconds:.2f}s wall, "
                f"{timing.cpu_seconds:.2f}s cpu"
            )
        if self.quarantined:
            lines.append("  quarantined samples:")
            for entry in self.quarantined:
                lines.append(f"    {entry['sample']:24s}: {entry['reason']}")
        if self.diagnostics is not None and self.diagnostics.diagnostics:
            lines.append("  lint diagnostics:")
            for diag in self.diagnostics.diagnostics:
                lines.append(f"    {diag.severity:7s} {diag.code} {diag.where}")
        return "\n".join(lines)


@dataclass
class DiscoveryCheckpoint:
    """Everything needed to resume an interrupted run: the partially
    filled report plus the names of phases already completed."""

    target: str
    completed: list
    report: DiscoveryReport
    state: dict

    def describe(self):
        done = ", ".join(self.completed) or "(none)"
        return f"checkpoint[{self.target}]: completed {done}"


class DiscoveryInterrupted(DiscoveryError):
    """A phase failed terminally; ``checkpoint`` resumes past the
    completed prefix once the target recovers.

    The checkpoint is also persisted to ``checkpoint_path`` before the
    exception is raised (the run's own ``--run-dir``, or a freshly
    created fallback directory), so the caller cannot lose it by letting
    the exception -- or the process -- die."""

    def __init__(self, phase, cause, checkpoint, checkpoint_path=None):
        message = f"discovery interrupted during {phase!r}: {cause}"
        if checkpoint_path is not None:
            message += (
                f" [checkpoint saved to {checkpoint_path}; resume with:"
                f" repro discover --resume {checkpoint_path}]"
            )
        super().__init__(message)
        self.phase = phase
        self.cause = cause
        self.checkpoint = checkpoint
        self.checkpoint_path = checkpoint_path


class ArchitectureDiscovery:
    """End-to-end discovery against one RemoteMachine.

    The machine handle is wrapped in a
    :class:`~repro.discovery.resilience.ResilientMachine` (retry +
    circuit breaker + optional execution voting); pass a
    :class:`ResilienceConfig` to tune the knobs.  With the default
    config (``votes=1``) and a healthy target the wrapper adds zero
    extra target interactions.
    """

    #: phases with per-sample completion records (mid-phase checkpoint
    #: boundaries; the chaos harness aims its ``sample`` kills here)
    FAN_OUT_PHASES = (
        "sample generation",
        "register discovery",
        "mutation analysis",
        "reverse interpretation",
    )

    #: the phase table: (name, method) in execution order
    PHASES = (
        ("enquire", "_phase_enquire"),
        ("assembler syntax", "_phase_syntax"),
        ("sample generation", "_phase_generate"),
        ("register discovery", "_phase_registers"),
        ("region extraction", "_phase_extract"),
        ("mutation analysis", "_phase_mutation"),
        ("address mapping", "_phase_addresses"),
        ("graph matching", "_phase_graphmatch"),
        ("reverse interpretation", "_phase_reverse_interp"),
        ("branch analysis", "_phase_branches"),
        ("calling convention", "_phase_calling"),
        ("frames and idioms", "_phase_frames"),
        ("synthesis", "_phase_synthesize"),
        ("spec lint", "_phase_speclint"),
    )

    def __init__(
        self,
        machine,
        seed=1997,
        ri_budget=60_000,
        use_likelihood=True,
        resilience=None,
        workers=None,
        cache=None,
        extract_procs=None,
        extract_memo=None,
        run_dir=None,
        crash_plan=None,
        checkpoint_every=None,
        verify=False,
    ):
        # The phase table is per-instance so opt-in phases (spec verify)
        # append without changing the class-level contract other code
        # (crash plans, resume bookkeeping) is written against.
        self.phases = list(self.PHASES)
        if verify:
            self.phases.append(("spec verify", "_phase_verify"))
        if resilience is False:  # escape hatch: measure the raw machine
            self.resilience = None
            self.machine = machine
        else:
            self.resilience = resilience or ResilienceConfig()
            self.machine = make_resilient(machine, self.resilience)
        if isinstance(cache, (str, os.PathLike)):
            cache = ProbeCache(cache)
        self.cache = cache
        self.machine = make_caching(self.machine, cache)
        if workers is None:
            workers = os.environ.get("REPRO_WORKERS", "1")
        # "auto" defers the venue choice to measured verb latency: the
        # scheduler starts single-connection and is resized right after
        # the enquire phase (see _apply_adaptive_sizing).  Workers are a
        # venue knob, so adaptation can never change the spec.
        self.adaptive_workers = workers == "auto"
        self._sized = False
        workers = 1 if self.adaptive_workers else int(workers)
        self.workers = max(1, workers)
        # The primary connection serves the sequential phases; workers
        # get one cloned connection each (per-connection counters, fault
        # plans and retry state -- aggregated again in _finalise).
        pool_size = self.workers + 1 if self.workers > 1 else 1
        self.pool, self._pool_note = TargetConnectionPool.open(self.machine, pool_size)
        self.scheduler = ProbeScheduler(self.pool, self.workers)
        if extract_procs is None:
            extract_procs = int(os.environ.get("REPRO_EXTRACT_PROCS", "1"))
        if extract_memo is None:
            extract_memo = os.environ.get("REPRO_EXTRACT_MEMO", "1") != "0"
        self.extractor = ExtractionEngine(procs=extract_procs, memo=extract_memo)
        self.seed = seed
        self.ri_budget = ri_budget
        self.use_likelihood = use_likelihood
        # -- crash durability ------------------------------------------
        # checkpoint_every: per-sample completion records per durable
        # commit inside the fan-out phases (1 = exact sample boundary).
        if checkpoint_every is None:
            checkpoint_every = int(os.environ.get("REPRO_CHECKPOINT_EVERY", "8"))
        self.checkpoint_every = max(1, checkpoint_every)
        self.crash_plan = crash_plan
        if run_dir is None or isinstance(run_dir, DurableRun):
            self.durable = run_dir
        else:
            self.durable = DurableRun.attach(run_dir, run_config(self))
        # the live (report, completed, state) triple of the current run;
        # _checkpoint() snapshots it for commits and interrupts
        self._report = None
        self._completed = None
        self._state = None
        #: where the Ctrl-C auto-persist landed (set on KeyboardInterrupt)
        self.interrupt_run_dir = None

    def run(self, resume=None):
        """Run all phases; pass ``resume=interrupted.checkpoint`` (or a
        checkpoint loaded from a :class:`~repro.discovery.durable.
        DurableRun`) to continue a run cut short by
        :class:`DiscoveryInterrupted` or by process death."""
        if resume is not None:
            if resume.target != self.machine.target:
                raise DiscoveryError(
                    f"checkpoint is for {resume.target!r}, "
                    f"machine is {self.machine.target!r}"
                )
            report, completed, state = resume.report, list(resume.completed), resume.state
            # A thawed checkpoint carries no live connection: rebind the
            # corpus (and through it the mutation engine's forks) to this
            # driver's freshly opened stack.  Assembled init objects
            # belonged to the dead connection, so the cache starts empty.
            if report.corpus is not None and report.corpus.machine is None:
                report.corpus.machine = self.machine
                report.corpus._init_cache = {}
        else:
            report = DiscoveryReport(target=self.machine.target)
            completed, state = [], {}
        if self._pool_note and self._pool_note not in report.notes:
            report.notes.append(self._pool_note)
        self._report, self._completed, self._state = report, completed, state
        clock = _Clock(report)
        if "enquire" in completed:
            # Resumed past the sizing point: re-derive (never re-measure)
            # the worker count from the recorded samples.
            self._apply_adaptive_sizing(state)

        try:
            # Every run opens with a snapshot of its starting state, so
            # the journal it appends to extends a snapshot this process
            # wrote (a resumed run re-bases off whatever replay rebuilt).
            self._commit()
            for name, method in self.phases:
                if name in completed:
                    continue
                self._crash_point("before", name)
                try:
                    with clock(name):
                        getattr(self, method)(report, state)
                except _QUARANTINE_ERRORS as exc:
                    if isinstance(exc, DiscoveryInterrupted):
                        raise
                    # The scheduler has drained: captured per-sample
                    # results are already merged, so the checkpoint's
                    # report holds no in-flight work, and the cache has
                    # every answer that came back (write-through).
                    state["scheduler"] = self.scheduler.stats.snapshot()
                    if self.cache is not None:
                        state["cache"] = self.cache.describe()
                    checkpoint = self._checkpoint()
                    path = self._persist_interrupt(checkpoint)
                    raise DiscoveryInterrupted(
                        name, exc, checkpoint, checkpoint_path=path
                    ) from exc
                complete_phase(state, completed, name)
                if name == "enquire":
                    # Size the scheduler while the link is freshly
                    # characterised, before the first fan-out phase.
                    self._apply_adaptive_sizing(state)
                self._phase_durable(name)
                self._crash_point("after", name)
        except KeyboardInterrupt:
            # Ctrl-C gets a durability story too: the run is one
            # --resume away instead of lost.  With a run directory the
            # newest snapshot plus its journal (current to the last
            # record boundary) is already consistent -- committing the live
            # in-memory state here could snapshot a chunk that was
            # absorbed but not yet recorded, which a resume would then
            # redo.  Without one, best-effort persist into a fallback
            # directory beats losing everything.
            if self.durable is not None:
                self.interrupt_run_dir = str(self.durable.directory)
            else:
                self.interrupt_run_dir = self._persist_interrupt(self._checkpoint())
            raise
        finally:
            self.scheduler.close()
            self.extractor.close()
            if self.cache is not None:
                self.cache.close()

        self._finalise(report)
        return report

    def _finalise(self, report):
        if report.spec is not None:
            report.spec.phase_timings = report.phase_timings
        report.machine_stats = self.pool.aggregate_machine_stats()
        report.retry_stats = self.pool.aggregate_retry_stats()
        report.fault_stats = self.pool.aggregate_fault_stats()
        report.scheduler_stats = self.scheduler.stats.snapshot()
        if self.cache is not None:
            report.cache_stats = self.cache.stats.snapshot()
        if report.corpus is not None:
            report.quarantined = [
                {"sample": s.name, "reason": s.discarded}
                for s in report.corpus.samples
                if s.discarded and s.discarded.startswith("quarantined")
            ]

    # -- adaptive sizing ----------------------------------------------

    def _apply_adaptive_sizing(self, state):
        """Pick the scheduler's concurrency from measured verb latency
        (``workers="auto"``).

        The decision is made exactly once per run: a fresh run measures
        a few fixed probe round-trips, a resumed or adopted run
        re-derives the same worker count from the samples recorded in
        the run manifest (or the checkpoint state) -- never by
        re-measuring, so the venue stays stable across resumes even if
        the link changed underneath.
        """
        if not self.adaptive_workers or self._sized:
            return
        self._sized = True
        record = None
        if self.durable is not None:
            record = self.durable.config.get("adaptive_sizing")
        if record is None:
            record = state.get("adaptive_sizing")
        if record is not None:
            samples = record.get("samples_ms", {})
        else:
            samples = sample_verb_latency(self.machine)
        workers = choose_workers(samples)
        record = sizing_record(samples, workers)
        state["adaptive_sizing"] = record
        if self.durable is not None:
            self.durable.config["adaptive_sizing"] = record
            self.durable.config["workers"] = workers
            self.durable._write_manifest()
        note = (
            f"adaptive sizing: median round trip "
            f"{record['median_round_trip_ms']:.3f}ms -> {workers} worker(s)"
        )
        if note not in self._report.notes:
            self._report.notes.append(note)
        self._resize_scheduler(workers)

    def _resize_scheduler(self, workers):
        """Tear down the connection pool and scheduler and rebuild them
        at the new width.  Safe between phases: the scheduler is always
        drained at phase boundaries, and aggregate counters are read
        from the pool only in :meth:`_finalise` (the new pool re-wraps
        the same underlying machine stack, so cache and retry state
        carry over untouched)."""
        workers = max(1, int(workers))
        if workers == self.workers:
            return
        self.scheduler.close()
        self.workers = workers
        pool_size = workers + 1 if workers > 1 else 1
        self.pool, self._pool_note = TargetConnectionPool.open(self.machine, pool_size)
        self.scheduler = ProbeScheduler(self.pool, workers)

    # -- crash durability helpers -------------------------------------

    def _checkpoint(self):
        """Snapshot the live run into a resumable checkpoint."""
        return DiscoveryCheckpoint(
            target=self.machine.target,
            completed=list(self._completed),
            report=self._report,
            state=self._state,
        )

    def _commit(self):
        """Durably publish the current checkpoint as a snapshot (no-op
        without a run directory)."""
        if self.durable is not None:
            self.durable.commit(self._checkpoint())

    def _phase_durable(self, name):
        """Make a just-completed phase durable: journal its result when
        it has one, otherwise snapshot -- but only when the next phase
        will journal something (its entries must extend a snapshot that
        holds this phase's effects) or the run is over.  Phases in
        between re-run on resume if a crash beats the next snapshot."""
        if self.durable is None:
            return
        if name in PHASE_RESULTS:
            self.durable.append_done(
                name, phase_result(self._report, self._state, name)
            )
        else:
            names = [phase for phase, _ in self.phases]
            following = names[names.index(name) + 1 :]
            if not following or (
                following[0] in PHASE_RESULTS or following[0] in self.FAN_OUT_PHASES
            ):
                self._commit()
        self.durable.note_completed(self._completed)

    def _crash_point(self, kind, phase, index=None):
        """A crash-injection boundary: the CrashPlan, when armed, dies
        here -- strictly *after* the matching durable commit, so what
        the harness tests is exactly what a real kill -9 leaves behind."""
        if self.crash_plan is not None:
            self.crash_plan.check(kind, phase, index)

    def _persist_interrupt(self, checkpoint):
        """Best-effort durable save when a phase fails terminally: into
        the run's own directory, or a freshly created fallback one, so
        the caller never needs to hold the in-memory checkpoint alive."""
        try:
            if self.durable is None:
                self.durable = DurableRun.attach(
                    auto_run_directory(self.machine.target), run_config(self)
                )
            self.durable.commit(checkpoint)
            return str(self.durable.directory)
        except (OSError, DiscoveryError):
            return None  # the in-memory checkpoint still works

    def _progress(self, phase):
        """The per-sample completion records of one fan-out phase.
        Each record merges through :func:`apply_record`, is appended to
        the journal, and exposes a ``sample`` crash boundary to the
        harness."""
        store = self._state.setdefault("progress", {}).setdefault(phase, {})

        def apply(key, payload):
            apply_record(self._report, self._state, phase, key, payload)
            if self.durable is not None:
                self.durable.append_record(phase, key, payload)

        def on_record(count):
            self._crash_point("sample", phase, count)

        return PhaseProgress(
            store, chunk=self.checkpoint_every, on_record=on_record, apply=apply
        )

    # -- quarantine helper --------------------------------------------

    @staticmethod
    def _quarantine(sample, phase, exc):
        sample.discard(f"quarantined ({phase}): {exc}")

    # -- phases --------------------------------------------------------

    def _phase_enquire(self, report, state):
        report.enquire = enquire(self.machine)

    def _phase_syntax(self, report, state):
        log = probe.ProbeLog()
        syntax = DiscoveredSyntax()
        syntax.comment_char = probe.discover_comment_char(self.machine, log)
        probe.discover_literal_syntax(self.machine, syntax, log)
        probe.discover_loadimm(self.machine, syntax, log)
        report.syntax = syntax
        report.probe_log = log

    def _phase_generate(self, report, state):
        # Spec construction draws from the seeded rng strictly in order
        # and is cheap, so it happens in one shot -- recorded as the
        # phase's setup, which replay rebuilds from the seed alone;
        # realisation (one compile and one run per sample) fans out in
        # completion-record chunks carrying the realised fields.  On
        # mid-phase resume the unrealised suffix is exactly the samples
        # still pending.
        progress = self._progress("sample generation")
        if report.corpus is None:
            progress.setup({"seed": self.seed, "word_bits": report.enquire.word_bits})
            report.corpus.machine = self.machine
        corpus = report.corpus
        pending = [
            s
            for s in corpus.samples
            if s.expected_output is None and s.discarded is None
        ]
        for chunk in chunked(pending, progress.chunk):
            self.scheduler.map_values(
                lambda sample, conn: realise_sample(corpus.bind(conn), sample),
                chunk,
                phase="sample generation",
            )
            progress.record(progress.next_key(), sample_fields(chunk, GENERATED_FIELDS))

    def _phase_registers(self, report, state):
        asms = [s.asm_text for s in report.corpus.samples if s.usable]
        probe.discover_registers(
            self.machine,
            report.syntax,
            asms,
            report.probe_log,
            scheduler=self.scheduler,
            progress=self._progress("register discovery"),
        )

    def _phase_extract(self, report, state):
        progress = self._progress("region extraction")
        done = set()
        for payload in progress.payloads():
            done.update(payload)
        pending = [
            s for s in report.corpus.samples if s.usable and s.name not in done
        ]
        for chunk in chunked(pending, progress.chunk):
            for sample in chunk:
                try:
                    extract_region(sample, report.syntax)
                except DiscoveryError as exc:
                    sample.discard(f"extraction failed: {exc}")
                except TargetError as exc:
                    self._quarantine(sample, "region extraction", exc)
            progress.record(progress.next_key(), sample_fields(chunk, EXTRACTED_FIELDS))

    def _phase_mutation(self, report, state):
        progress = self._progress("mutation analysis")
        if report.engine is None:
            # Corpus-wide facts are computed once, sequentially, *before*
            # the fan-out: the functional-register set and the pilot
            # sample's clobber-safe set (which seeds the engine's
            # fast-path guess).  Forked engines then share them
            # read-only, so the answers -- and the rng draws that
            # produced them -- are identical for any worker count.  The
            # setup record carries both facts and the rng position, so
            # a resume never recomputes or redraws them.
            scratch = MutationEngine(
                report.corpus, word_bits=report.enquire.word_bits, seed=self.seed
            )
            scratch.functional_registers()
            pilot = next(iter(report.corpus.usable_samples()), None)
            if pilot is not None:
                scratch.clobber_safe_registers(pilot)
            progress.setup(engine_setup(scratch))
        engine = report.engine
        analysed = set()
        for payload in progress.payloads():
            # records written before journaling were plain name lists
            analysed.update(payload["samples"] if isinstance(payload, dict) else payload)
        tasks = [
            s
            for s in report.corpus.samples
            if s.usable and s.name not in analysed
        ]

        def analyse(sample, conn):
            fork = engine.fork(sample.name, machine=conn)
            Preprocessor(fork).process(sample)
            return fork

        for chunk in chunked(tasks, progress.chunk):
            regions = {s.name: s.region for s in chunk}
            outcomes = self.scheduler.map(analyse, chunk, phase="mutation analysis")
            stats = MutationStats()
            for sample, outcome in zip(chunk, outcomes):
                if outcome.ok:
                    stats.add(vars(outcome.value.stats))
                elif isinstance(outcome.error, DiscoveryInterrupted):
                    raise outcome.error
                elif isinstance(outcome.error, DiscoveryError):
                    sample.discard(f"preprocessing failed: {outcome.error}")
                elif isinstance(outcome.error, TargetError):
                    self._quarantine(sample, "mutation analysis", outcome.error)
                else:
                    raise outcome.error
            # Quarantined and discarded samples are recorded *done* too:
            # resume must not silently retry them (their probes failed
            # terminally; the discarded reason rides the record).
            names = [s.name for s in chunk]
            fields = sample_fields(chunk, PREPROCESSED_FIELDS)
            for sample in chunk:
                # Passes replace the region list, never edit it in
                # place: an untouched one is already in the extraction
                # record.
                if sample.region is regions[sample.name]:
                    del fields[sample.name]["region"]
            progress.record(
                progress.next_key(),
                {
                    "samples": fields,
                    "value_sets": {
                        n: engine._value_sets[n] for n in names if n in engine._value_sets
                    },
                    "clobber_safe": {
                        n: engine._clobber_safe[n]
                        for n in names
                        if n in engine._clobber_safe
                    },
                    "stats": vars(stats),
                },
            )

    def _phase_addresses(self, report, state):
        report.addr_map = discover_address_map(report.corpus)

    def _phase_graphmatch(self, report, state):
        # The engine installs the worker context here -- after mutation
        # analysis fully annotated the samples, before the first fan-out
        # -- so forked workers inherit the preprocessed corpus.
        self.extractor.prepare(
            report.corpus,
            report.addr_map,
            report.enquire.word_bits,
            use_likelihood=self.use_likelihood,
        )
        state["graph_roles"] = self.extractor.graph_roles()

    def _phase_reverse_interp(self, report, state):
        if not self.extractor._prepared:  # resumed past graph matching
            self.extractor.prepare(
                report.corpus,
                report.addr_map,
                report.enquire.word_bits,
                use_likelihood=self.use_likelihood,
            )
        # Shard outcomes are the phase's completion records: each solved
        # shard commits, and resume hands the already-solved ones back so
        # only the unsolved suffix re-runs.  Shards are seeded per-index,
        # so the merge -- and the spec -- cannot tell the difference.
        progress = self._progress("reverse interpretation")
        done = {o.index: o for o in progress.payloads()}
        report.extraction = self.extractor.extract(
            state.get("graph_roles", {}),
            self.ri_budget,
            completed=done,
            on_shard=lambda outcome: progress.record(
                f"shard-{outcome.index:05d}", outcome
            ),
        )
        report.extraction_stats = self.extractor.stats

    def _phase_branches(self, report, state):
        report.branch_model = BranchAnalysis(
            report.engine, report.addr_map, report.enquire.word_bits
        ).analyse()

    def _phase_calling(self, report, state):
        try:
            report.call_protocol = CallAnalysis(report.engine, report.addr_map).analyse()
        except DiscoveryError as exc:
            report.notes.append(f"calling convention: {exc}")

    def _phase_frames(self, report, state):
        frame = discover_frame(self.machine, report.syntax)
        print_tpl, exit_tpl, data_lines = discover_idioms(report.corpus, report.addr_map)
        frame.print_template = print_tpl
        frame.exit_template = exit_tpl
        frame.data_lines = data_lines
        report.frame_model = frame

    def _phase_synthesize(self, report, state):
        synthesizer = Synthesizer(
            report.engine,
            report.addr_map,
            report.extraction,
            report.enquire,
            report.probe_log,
            seed=self.seed,
        )
        report.spec = synthesizer.synthesize(
            branch_model=report.branch_model,
            call_protocol=report.call_protocol,
            frame_model=report.frame_model,
        )

    def _phase_speclint(self, report, state):
        """Static verification of the synthesised description.  Findings
        never abort discovery -- they travel on the report and the spec
        so summaries, reports and the CLI can gate on them."""
        from repro.analysis import lint_spec

        report.diagnostics = lint_spec(report.spec)
        report.spec.diagnostics = report.diagnostics.to_dicts()

    def _phase_verify(self, report, state):
        """Translation validation of the synthesised description against
        the target's own machine model (opt-in, ``verify=True`` /
        ``repro discover --verify``).  Like lint, findings never abort
        discovery; they merge into the report's diagnostics and the
        spec's summary."""
        from repro.analysis.verify import build_model, verify_spec

        model = build_model(self.machine.target)
        result = verify_spec(report.spec, model, seed=self.seed)
        report.verify_stats = result.stats
        if report.diagnostics is None:
            from repro.analysis.diagnostics import DiagnosticSet

            report.diagnostics = DiagnosticSet()
        report.diagnostics.extend(result.diagnostics)
        report.spec.diagnostics = report.diagnostics.to_dicts()


# -- completion records and phase results -------------------------------
#
# A record phase's completion record carries everything its chunk
# changed, and :func:`apply_record` is the only way a record reaches the
# run state: the live phase calls it through ``PhaseProgress.record``,
# journal replay calls it from :func:`replay_entry`.  Phases listed in
# :data:`PHASE_RESULTS` journal their completion as the few fields they
# set; the effects of any other phase become durable with the next
# snapshot.

#: sample fields each record-phase chunk writes
GENERATED_FIELDS = ("main_c", "asm_text", "expected_output", "discarded")
EXTRACTED_FIELDS = ("pre_lines", "post_lines", "region", "notes", "discarded")
PREPROCESSED_FIELDS = ("info", "region", "region_original", "notes", "discarded")

#: phase -> the (root, attr, ...) paths whose values make up its
#: journaled result; ``root`` is "report" or "state"
PHASE_RESULTS = {
    "enquire": (("report", "enquire"), ("state", "adaptive_sizing")),
    "assembler syntax": (("report", "syntax"), ("report", "probe_log")),
    "sample generation": (),
    "register discovery": (("report", "syntax", "registers"),),
    "region extraction": (),
    "mutation analysis": (),
    "address mapping": (("report", "addr_map"),),
    "graph matching": (("state", "graph_roles"),),
    "spec lint": (("report", "diagnostics"), ("report", "spec", "diagnostics")),
    "spec verify": (
        ("report", "verify_stats"),
        ("report", "diagnostics"),
        ("report", "spec", "diagnostics"),
    ),
}


def sample_fields(samples, fields):
    """``{sample name: {field: value}}`` for a chunk's samples (fields a
    sample never got -- analysis gave up first -- are left out)."""
    return {
        s.name: {name: getattr(s, name) for name in fields if hasattr(s, name)}
        for s in samples
    }


def _merge_samples(corpus, fields_by_name):
    by_name = {s.name: s for s in corpus.samples}
    for name, fields in fields_by_name.items():
        sample = by_name[name]
        for field_name, value in fields.items():
            setattr(sample, field_name, value)


def engine_setup(engine):
    """The setup record of mutation analysis: the corpus-wide facts a
    fresh engine computed before the fan-out, and its rng position."""
    return {
        "word_bits": engine.word_bits,
        "seed": engine.seed,
        "rng": engine.rng,
        "stats": vars(engine.stats).copy(),
        "functional": engine._functional,
        "safe_guess": engine._safe_guess,
        "value_sets": dict(engine._value_sets),
        "clobber_safe": dict(engine._clobber_safe),
    }


def _merge_generation(report, key, payload):
    if key == SETUP_KEY:
        generator = SampleGenerator(None, report.syntax, seed=payload["seed"])
        report.corpus = generator.build_corpus(word_bits=payload["word_bits"])
    else:
        _merge_samples(report.corpus, payload)


def _merge_extraction(report, key, payload):
    _merge_samples(report.corpus, payload)


def _merge_mutation(report, key, payload):
    if key == SETUP_KEY:
        engine = MutationEngine(
            report.corpus,
            word_bits=payload["word_bits"],
            seed=payload["seed"],
            rng=payload["rng"],
        )
        engine.stats = MutationStats(**payload["stats"])
        engine._functional = payload["functional"]
        engine._safe_guess = payload["safe_guess"]
        engine._value_sets = dict(payload["value_sets"])
        engine._clobber_safe = dict(payload["clobber_safe"])
        report.engine = engine
        return
    _merge_samples(report.corpus, payload["samples"])
    engine = report.engine
    engine._value_sets.update(payload["value_sets"])
    engine._clobber_safe.update(payload["clobber_safe"])
    engine.stats.add(payload["stats"])


_MERGES = {
    "sample generation": _merge_generation,
    "register discovery": lambda report, key, payload: probe.merge_register_record(
        report.probe_log, payload
    ),
    "region extraction": _merge_extraction,
    "mutation analysis": _merge_mutation,
}


def apply_record(report, state, phase, key, payload):
    """Store one completion record and merge what its chunk changed into
    the run state -- the single merge path of the live run and replay.
    (Reverse-interpretation shard outcomes only need storing: the
    extraction engine merges them when the phase finishes.)"""
    state.setdefault("progress", {}).setdefault(phase, {})[key] = payload
    merge = _MERGES.get(phase)
    if merge is not None:
        merge(report, key, payload)


def _resolve(report, state, path):
    return report if path[0] == "report" else state, path[1:]


def phase_result(report, state, phase):
    """The journaled result of a :data:`PHASE_RESULTS` phase: the values
    at its paths, as ``[(path, value), ...]``."""
    out = []
    for path in PHASE_RESULTS[phase]:
        node, attrs = _resolve(report, state, path)
        if isinstance(node, dict):
            if attrs[0] not in node:
                continue
            node = node[attrs[0]]
        else:
            node = getattr(node, attrs[0])
        for attr in attrs[1:]:
            node = getattr(node, attr)
        out.append((path, node))
    return out


def replay_entry(checkpoint, entry):
    """Apply one journal entry to a thawed checkpoint."""
    report, state = checkpoint.report, checkpoint.state
    if entry["kind"] == "record":
        apply_record(report, state, entry["phase"], entry["key"], entry["payload"])
        return
    for path, value in entry["result"]:
        node, attrs = _resolve(report, state, path)
        if isinstance(node, dict):
            node[attrs[0]] = value
            continue
        for attr in attrs[:-1]:
            node = getattr(node, attr)
        setattr(node, attrs[-1], value)
    complete_phase(state, checkpoint.completed, entry["phase"])


def complete_phase(state, completed, phase):
    """Mark *phase* completed.  Its completion records are dropped: a
    completed phase never re-reads them (a resume that re-runs it gets
    them back from the journal), and snapshots stay the size of the
    state rather than of the state plus every record."""
    completed.append(phase)
    state.get("progress", {}).pop(phase, None)


class _Clock:
    def __init__(self, report):
        self.report = report

    def __call__(self, name):
        return _Phase(self.report, name)


class _Phase:
    def __init__(self, report, name):
        self.report = report
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.report.timings.append(
                PhaseTiming(
                    self.name,
                    time.perf_counter() - self.start,
                    time.process_time() - self.cpu_start,
                )
            )
        return False
