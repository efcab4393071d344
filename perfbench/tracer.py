"""Span tracing for the benchmark, installed from outside the program.

A :class:`Tracer` wraps the public entry point of each layer (the
``RemoteMachine`` round trip, the C compiler, assembler, linker and
executor, reverse interpretation, likelihood scoring, the probe cache,
the spec verifier and the discovery service) so that every call records
a span ``(id, parent, name, start, end, ok)``.  Spans are kept in memory
and written out when the benchmark ends.  A layer's self time is its
spans' duration minus the part covered by their child spans, which are
always nested on the same thread.

Nothing under ``src/`` knows about this module: the wrappers are set on
the modules and classes of the ``repro`` package and removed again by
:meth:`Tracer.uninstall`.  :class:`SpeedProbe` measures how fast the host
runs the process, so that times can be given at reference speed, and
:func:`install_worker_probe` carries both into the service's worker
processes.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import resource
import signal
import sys
import threading
import time

#: what one probe loop takes on the reference host: the 2-core Xeon
#: (2.1 GHz) the benchmark was defined on, at its typical speed.  It only
#: sets the scale of normalised seconds.
PROBE_REF_S = 5e-4


class Tracer:
    def __init__(self):
        #: finished spans: (id, parent id or 0, name, start, end, ok)
        self.spans = []
        #: counts recorded at the same boundaries (e.g. executed steps)
        self.counts = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    # -- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_result=None):
        """*fn* wrapped so that each call records a span called *name*;
        ``on_result(counts, result)`` may add counts from the result."""
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, ok))
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def patch_method(self, cls, attr, name, on_result=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, on_result))
        self._undo.append((cls, attr, original))

    def patch_function(self, module, attr, name, on_result=None):
        """Wrap a module-level function in every loaded module that
        bound it (``from x import f`` makes a second binding)."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, on_result)
        for holder in list(sys.modules.values()):
            try:
                names = [k for k, v in vars(holder).items() if v is original]
            except TypeError:
                continue
            for key in names:
                setattr(holder, key, wrapped)
                self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layers ----------------------------------------------------

    def install(self):
        """Wrap every layer entry point the benchmark reports on."""
        from repro.analysis import verify
        from repro.cc.codegen.base import CodeGen
        from repro.discovery import likelihood, reverse_interp
        from repro.discovery.cache import ProbeCache
        from repro.discovery.driver import ArchitectureDiscovery
        from repro.machines import executor, linker
        from repro.machines.assembler import Assembler
        from repro.machines.machine import RemoteMachine
        from repro.service.app import DiscoveryService
        from repro.service.httpd import ServiceHandler

        def add_steps(counts, result):
            counts["machines.executor.steps"] += result.steps

        self.patch_method(ArchitectureDiscovery, "run", "discovery.run")
        self.patch_method(RemoteMachine, "_round_trip", "machines.rtt_wait")
        self.patch_method(CodeGen, "compile", "cc.compile")
        self.patch_method(Assembler, "assemble", "machines.assembler")
        self.patch_function(linker, "link", "machines.linker")
        self.patch_function(executor, "run", "machines.executor", add_steps)
        self.patch_function(
            reverse_interp, "check_sample", "discovery.reverse_interp.check_sample"
        )
        self.patch_function(
            reverse_interp, "hypotheses", "discovery.reverse_interp.hypotheses"
        )
        self.patch_function(likelihood, "score", "discovery.likelihood.score")
        self.patch_method(ProbeCache, "get", "discovery.cache.get")
        self.patch_method(ProbeCache, "put", "discovery.cache.put")
        self.patch_function(verify, "verify_spec", "analysis.verify")
        for verb in ("cache_get", "cache_get_batch", "cache_put_batch"):
            self.patch_method(DiscoveryService, verb, f"service.{verb}")
        self.patch_method(ServiceHandler, "_route", "service.request")
        return self

    # -- reading -------------------------------------------------------

    def layers(self):
        """``{name: {"calls", "failed", "total_s", "self_s"}}`` over
        every span recorded so far."""
        return layer_table(self.spans)

    def request_ms(self):
        """Durations of the service's HTTP request spans, in ms."""
        return [
            (end - start) * 1000.0
            for _, _, name, start, end, _ in self.spans
            if name == "service.request"
        ]

    def dump(self, path, header=None):
        """Write the spans as JSON lines (a header line first)."""
        with open(path, "w") as out:
            out.write(json.dumps({"header": header or {}, "counts": dict(self.counts)}))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def layer_table(spans):
    """Per-name calls, failures, total and self seconds.  Span ids are
    unique within one process, so *spans* must come from one tracer."""
    covered = collections.Counter()
    for _, parent, _, start, end, _ in spans:
        if parent:
            covered[parent] += end - start
    table = {}
    for span_id, _, name, start, end, ok in spans:
        row = table.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += 0 if ok else 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[span_id]
    return table


def merge_tables(*tables):
    """Sum layer tables from several processes."""
    out = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def _probe_loop():
    counts = {}
    for i in range(1500):
        key = (i % 97, i & 7)
        counts[key] = counts.get(key, 0) + 1


class SpeedProbe:
    """How fast this process's CPU runs, against the reference host.

    The hosts the benchmark runs on share cores with other tenants: the
    same Python work takes up to twice as long from one minute to the
    next, and in bursts of seconds.  Every *period* seconds a ``SIGALRM``
    handler times a fixed loop; its speed is :data:`PROBE_REF_S` over the
    loop time.  Work done is speed integrated over CPU time, so CPU
    seconds times ``ratio(mark)`` -- the mean speed since *mark*, each
    sample weighted by the CPU seconds the process spent since the one
    before (a sample after idling finds cold caches) -- are CPU seconds
    at reference speed.  The handler runs in the main thread and must
    not raise.
    """

    def __init__(self, period=0.02):
        self.period = period
        self.samples = []  # (CPU seconds since the last sample, loop seconds)
        self._cpu = time.process_time()

    def _sample(self, signum, frame):
        busy = time.process_time() - self._cpu
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((busy, time.perf_counter() - start))
        self._cpu = time.process_time()

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def ratio(self, since=0):
        window = self.samples[since:]
        busy = sum(b for b, _ in window)
        if not busy:
            return 1.0
        return sum(b * PROBE_REF_S / d for b, d in window) / busy


def cpu_seconds():
    """CPU seconds this process has spent, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def report_counters(report):
    """The per-layer counters a finished ``DiscoveryReport`` carries."""
    machine, engine = report.machine_stats, report.engine
    scheduler, extraction = report.scheduler_stats, report.extraction_stats
    return {
        "target": report.target,
        "remote_verbs": machine.total_verbs if machine else 0,
        "quarantined": len(report.quarantined),
        "mutation_attempted": engine.stats.attempted if engine else 0,
        "mutation_succeeded": engine.stats.succeeded if engine else 0,
        "scheduler_tasks": scheduler.tasks if scheduler else 0,
        "scheduler_max_in_flight": scheduler.max_in_flight if scheduler else 0,
        "memo_hits": extraction.memo_hits if extraction else 0,
        "memo_misses": extraction.memo_misses if extraction else 0,
        "retries": report.retry_stats.retries if report.retry_stats else 0,
        "phase_timings": report.phase_timings,
    }


def install_worker_probe(out_dir, trace):
    """Record, inside a discovery worker process, the counters of every
    report it produces, its CPU seconds and speed ratio (and its spans
    when *trace*), and write them to ``out_dir/<pid>.json`` when the
    process exits."""
    import atexit
    import os

    from repro.discovery.driver import ArchitectureDiscovery

    tracer = Tracer().install() if trace else None
    probe = SpeedProbe().start()
    reports = []
    run = ArchitectureDiscovery.run

    def counted_run(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        reports.append(report_counters(report))
        return report

    ArchitectureDiscovery.run = counted_run

    def dump():
        probe.stop()
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        record = {
            "reports": reports,
            "cpu_s": cpu_seconds(),
            "speed_ratio": probe.ratio(),
            "layers": {},
            "counts": {},
        }
        if tracer is not None:
            record["layers"] = tracer.layers()
            record["counts"] = dict(tracer.counts)
            tracer.dump(
                os.path.join(out_dir, f"{os.getpid()}.spans.jsonl"),
                header={"worker_pid": os.getpid(), "targets": [r["target"] for r in reports]},
            )
        with open(path + ".tmp", "w") as out:
            json.dump(record, out)
        os.replace(path + ".tmp", path)

    atexit.register(dump)
