#!/usr/bin/env python3
"""The repository benchmark: what retargeting costs, end to end and per layer.

    python3 perfbench/run.py --workload cold-cpu --seed 1997 --seconds 35 --trace 0

Run it from the repository root; it imports the program from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the run (seed, workload parameters, ``nproc``, Python, source
revision).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see ``perfbench/README.md``).  Scratch files, the
full result and the span file go under ``.perfbench/`` in the working
directory.

A *unit* is one measurement of the whole workload: a first pass that
discovers every target and checks the specs (``discover_s``) and a
second pass over the same targets (``rediscover_s``).  The run makes
one unit, then more while the next, expected to take as long as the
last, would end within ``--seconds``; it reports the median of each
metric over its units.  With ``--trace 1`` the run makes one unit
without and one with the tracer installed, neither with a second pass
on the in-process workloads; the per-layer metrics come from the traced
one.  A run that measured exits 0 and gives its verdict in ``correct``.

Times are reported in seconds at reference host speed, because the
host's speed drifts by up to 2x within minutes: each CPU second is
rescaled by the :class:`tracer.SpeedProbe` ratio of the process that
spent it, in CPU times and in wall times alike; time spent waiting (on
round trips, the disk, the service's poll) is not.  The raw wall and CPU
seconds are kept in the full record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from tracer import SpeedProbe, Tracer, cpu_seconds, merge_tables, report_counters

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAMS = ("gcd", "collatz", "primes")
#: phases whose wall and CPU time the traced run reports
PHASES = (
    "sample generation",
    "register discovery",
    "mutation analysis",
    "reverse interpretation",
    "synthesis",
)
#: how often the benchmark polls a service job (fixed cadence), and for
#: how long at most (a run must end within 180 s)
POLL_S = 0.05
CAMPAIGN_TIMEOUT_S = 120
#: fresh-interpreter set-ups per run; setup_s is their median
SETUPS = 3
TERMINAL = ("done", "failed", "cancelled", "expired")


@dataclass(frozen=True)
class Workload:
    name: str
    targets: tuple
    latency: float = 0.0  # simulated seconds per remote verb
    workers: int = 1
    service: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-cpu", ("vax", "mips", "x86")),
        Workload("rtt-2ms", ("vax",), latency=0.002, workers=2),
        Workload("service-campaign", ("vax",), service=True),
    )
}

END_TO_END = {
    "setup_s": "s",
    "discover_s": "s",
    "rediscover_s": "s",
    "discover_cpu_s": "s",
    "remote_verbs": "count",
    "peak_rss_mb": "MB",
    "gen_code_instrs": "count",
    "gen_run_steps": "count",
}

#: layers timed by spans: each reports calls and self seconds
SPAN_LAYERS = (
    "machines.assembler",
    "machines.linker",
    "machines.executor",
    "cc.compile",
    "discovery.reverse_interp.check_sample",
    "discovery.reverse_interp.hypotheses",
    "discovery.likelihood.score",
    "service.cache_get",
    "service.cache_get_batch",
    "service.cache_put_batch",
)


def _per_layer_units():
    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["machines.assembler.accept_ratio"] = "ratio"
    units["machines.executor.steps"] = "count"
    units["machines.rtt_wait_s"] = "s"
    for name in ("discovery.scheduler.tasks", "discovery.scheduler.max_in_flight",
                 "discovery.mutation.attempted", "discovery.mutation.succeeded",
                 "discovery.cache.hits", "discovery.cache.misses", "discovery.cache.writes",
                 "discovery.durable.commits", "analysis.verify.proven",
                 "analysis.verify.sampled", "discovery.resilience.retries"):
        units[name] = "count"
    for phase in PHASES:
        units[f"phase.{phase.replace(' ', '_')}.wall_s"] = "s"
        units[f"phase.{phase.replace(' ', '_')}.cpu_s"] = "s"
    units["discovery.extract.memo_hit_rate"] = "ratio"
    units["discovery.cache.get.self_s"] = "s"
    units["discovery.cache.put.self_s"] = "s"
    units["discovery.durable.checkpoint_bytes"] = "bytes"
    units["service.request_ms.p50"] = "ms"
    units["service.request_ms.p95"] = "ms"
    units["service.worker_overhead_s"] = "s"
    units["analysis.verify.self_s"] = "s"
    units["failed_fraction"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


# -- the program --------------------------------------------------------


def _import_program():
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def spec_text(report):
    """A report's spec exactly as ``<target>.beg`` holds it."""
    return report.spec.render_beg() + "\n"


def discover(target, seed, latency=0.0, workers=1):
    """In-process discovery: no probe cache, no extraction processes."""
    from repro.discovery.driver import ArchitectureDiscovery
    from repro.machines.machine import RemoteMachine

    machine = RemoteMachine(target, latency=latency)
    return ArchitectureDiscovery(
        machine, seed=seed, workers=workers, extract_procs=1, cache=None
    ).run()


def _program_source(name):
    return (ROOT / "examples" / "programs" / f"{name}.a").read_text()


# -- correctness --------------------------------------------------------


class Checks:
    """Every correctness check of a run, counted into ``failed_fraction``."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def check_spec(target, spec, word_bits, latency, checks):
    """``verify_spec`` the spec, then retarget the example programs with
    it and compare each output with the IR interpreter's, as
    ``SelfRetargetingCompiler.check`` does.  Returns the summed static
    instruction count and executed steps of the generated programs, and
    the verifier's obligation counts."""
    from repro.analysis import verify
    from repro.beg.codegen import GeneratedBackend
    from repro.beg.ir import eval_program
    from repro.errors import ReproError
    from repro.machines.assembler import Assembler
    from repro.machines.machine import RemoteMachine, build_model
    from repro.toyc.compiler import compile_to_ir

    model = build_model(target)
    result = verify.verify_spec(spec, model)
    errors = result.diagnostics.counts().get("error", 0)
    refuted = result.stats.get("refuted", 0)
    checks.expect(
        refuted == 0 and errors == 0,
        f"{target}: verify_spec refuted {refuted} obligation(s), {errors} error(s)",
    )
    machine = RemoteMachine(target, latency=latency)
    assembler = Assembler(model.isa)
    instrs = steps = 0
    for name in PROGRAMS:
        program = compile_to_ir(_program_source(name))
        expected = eval_program(program, bits=word_bits)
        try:
            asm = GeneratedBackend(spec).compile_ir(program)
            instrs += len(assembler.assemble(asm).instrs)
            run = machine.run_asm([asm])
        except ReproError as exc:
            checks.expect(False, f"{target}/{name}: {type(exc).__name__}: {exc}")
            continue
        steps += run.steps
        checks.expect(
            run.ok and run.output == expected,
            f"{target}/{name}: printed {run.output!r} (error {run.error}), expected {expected!r}",
        )
    return instrs, steps, result.stats


def check_reports(reports, latency, checks, specs=None):
    """Check every target's spec (default: the report's own) and that no
    sample was quarantined; returns the generated-code totals and the
    verifier counts."""
    totals = {"gen_code_instrs": 0, "gen_run_steps": 0, "proven": 0, "sampled": 0}
    for target, report in reports.items():
        checks.expect(
            not report.quarantined,
            f"{target}: {len(report.quarantined)} sample(s) quarantined",
        )
        spec = report.spec if specs is None else specs[target]
        instrs, steps, stats = check_spec(
            target, spec, report.enquire.word_bits, latency, checks
        )
        totals["gen_code_instrs"] += instrs
        totals["gen_run_steps"] += steps
        totals["proven"] += stats.get("proven", 0)
        totals["sampled"] += stats.get("sampled", 0)
    return totals


def check_identity(label, specs, reference, checks):
    """Each spec byte-identical to the cold-cpu-configured spec."""
    for target, text in specs.items():
        checks.expect(
            text == reference[target],
            f"{target}: {label} spec differs from the cold-cpu spec",
        )


# -- measuring ----------------------------------------------------------


@dataclass
class Run:
    """What every unit of one benchmark run shares."""

    workload: Workload
    seed: int
    checks: Checks
    scratch: pathlib.Path
    probe: SpeedProbe
    #: the service workload's cold-cpu-configured reports (identity
    #: reference; the same for every unit, so computed once)
    reference: dict = field(default_factory=dict)
    #: the in-process workloads' latest second-pass specs
    reference_specs: dict = field(default_factory=dict)


class Interval:
    """Wall and CPU seconds over a block, raw and at reference speed.

    This process's CPU seconds are rescaled by its probe ratio over the
    block; *children* -- ``(cpu_s, speed_ratio)`` of each worker process
    that ran in it -- are added with :meth:`include`.  The wall time
    changes by as much as the CPU seconds in it do."""

    def __init__(self, probe):
        self.probe = probe
        self.children = []

    def __enter__(self):
        self._mark = self.probe.mark()
        self._wall = time.perf_counter()
        self._cpu = cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = cpu_seconds() - self._cpu
        self.ratio = self.probe.ratio(self._mark)

    def include(self, children):
        self.children.extend(children)

    @property
    def norm_cpu_s(self):
        return sum(c * r for c, r in self._all())

    @property
    def norm_wall_s(self):
        return self.wall_s + sum(c * (r - 1) for c, r in self._all())

    def _all(self):
        return [(self.cpu_s, self.ratio), *self.children]

    def raw(self):
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "speed_ratio": self.ratio,
                "children": self.children}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextmanager
def tracing(tracer):
    """Trace the block when a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


# -- in-process workloads -----------------------------------------------


def in_process_unit(run, layers, tracer=None, rediscover=True):
    """cold-cpu and rtt-2ms: the first pass runs in the workload's
    configuration, the second (when *rediscover*) in the cold-cpu one;
    for cold-cpu the two coincide.  Every first-pass spec must equal its
    target's latest cold-cpu-configured spec: this unit's second pass,
    or an earlier unit's.  Only the first pass is traced.  A unit without
    a second pass and without an earlier reference takes its own specs as
    the reference on cold-cpu, and discovers it untimed on rtt-2ms."""
    workload = run.workload
    with tracing(tracer), Interval(run.probe) as first:
        reports = {
            t: discover(t, run.seed, workload.latency, workload.workers)
            for t in workload.targets
        }
        totals = check_reports(reports, workload.latency, run.checks)
    specs = {t: spec_text(r) for t, r in reports.items()}
    second = None
    if rediscover:
        with Interval(run.probe) as second:
            run.reference_specs = {
                t: spec_text(discover(t, run.seed)) for t in workload.targets
            }
    elif not run.reference_specs:
        if workload.latency == 0 and workload.workers == 1:
            run.reference_specs = specs
        else:
            run.reference_specs = {
                t: spec_text(discover(t, run.seed)) for t in workload.targets
            }
    if run.reference_specs is not specs:
        check_identity(workload.name, specs, run.reference_specs, run.checks)
    counters = [report_counters(r) for r in reports.values()]
    layers.update(counters=counters, verify=totals)
    return _unit_metrics(first, second, sum(c["remote_verbs"] for c in counters), totals)


def _unit_metrics(first, second, remote_verbs, totals):
    return {
        "discover_s": first.norm_wall_s,
        "rediscover_s": second.norm_wall_s if second else None,
        "discover_cpu_s": first.norm_cpu_s,
        "remote_verbs": remote_verbs,
        "gen_code_instrs": totals["gen_code_instrs"],
        "gen_run_steps": totals["gen_run_steps"],
        "raw": {"first": first.raw(), "second": second.raw() if second else None},
    }


# -- the service workload -----------------------------------------------


class ServiceHarness:
    """An in-process ``DiscoveryService`` served on localhost, with the
    worker probe (``worker_hook/``) armed for its workers."""

    def __init__(self, root, trace):
        from repro.service.app import DiscoveryService
        from repro.service.client import ServiceClient
        from repro.service.httpd import serve

        self.root = pathlib.Path(root)
        self.trace = trace
        self.service = DiscoveryService(
            self.root / "service", fleet=1, heartbeat_every=0.2, poll_interval=0.05,
            echo=lambda *args, **kwargs: None,
        )
        self.server = serve(self.service, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.service.start()
        self.client = ServiceClient(self.server.url)

    def close(self):
        self.server.shutdown()
        self.service.stop()
        self.server.server_close()
        self.thread.join(timeout=10)

    def campaign(self, label, targets, seed, workers):
        """Submit one campaign and poll its status at a fixed cadence
        until it ends; returns (final status, specs, worker probes)."""
        probe_dir = self.root / f"probe-{label}"
        probe_dir.mkdir()
        path = os.environ.get("PYTHONPATH")
        env = {
            "PERFBENCH_HOOK_DIR": str(probe_dir),
            "PERFBENCH_TRACE": "1" if self.trace else "0",
            "PYTHONPATH": os.pathsep.join(filter(None, [str(HERE / "worker_hook"), path])),
        }
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)  # the service's workers inherit it
        try:
            job = self.client.submit(list(targets), seed=seed, workers=workers)
            deadline = time.perf_counter() + CAMPAIGN_TIMEOUT_S
            while True:
                status = self.client.status(job["id"])
                if status["state"] in TERMINAL:
                    break
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"{label} campaign still {status['state']}")
                time.sleep(POLL_S)
            specs = (
                self.client.spec(job["id"])["specs"] if status["state"] == "done" else {}
            )
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        probes = []
        for path in sorted(probe_dir.glob("*.json")):
            probe = json.loads(path.read_text())
            probe["spans_file"] = path.with_suffix(".spans.jsonl")
            probes.append(probe)
        return status, specs, probes

    def summaries(self, status):
        """The workers' ``<target>.summary.json`` for a finished job."""
        out = {}
        for campaign in status["campaigns"]:
            target = campaign["target"]
            path = (self.root / "service" / "campaigns" / status["id"] / target / "out"
                    / f"{target}.summary.json")
            if path.exists():
                out[target] = json.loads(path.read_text())
        return out

    def durable(self):
        """Checkpoint generations committed and bytes of the newest
        generation, summed over every worker run directory."""
        commits = size = 0
        for run_dir in sorted((self.root / "service" / "campaigns").glob("*/*/run")):
            generations = sorted(run_dir.glob("ckpt-*.bin"))
            if generations:
                commits += int(generations[-1].stem.split("-")[1])
                size += generations[-1].stat().st_size
        return commits, size


def _workers(probes):
    return [(p["cpu_s"], p["speed_ratio"]) for p in probes]


def service_unit(run, layers, tracer=None):
    """One client submits the campaign cold, then again warm; both are
    traced.  Specs must equal the in-process cold-cpu-configured ones."""
    workload, checks = run.workload, run.checks
    targets = workload.targets
    reference = {t: spec_text(r) for t, r in run.reference.items()}
    harness = ServiceHarness(tempfile.mkdtemp(dir=run.scratch), trace=tracer is not None)
    try:
        cache = harness.service.cache.stats
        with tracing(tracer), Interval(run.probe) as first:
            cold, cold_specs, cold_probes = harness.campaign(
                "cold", targets, run.seed, workload.workers
            )
            checks.expect(cold["state"] == "done", f"cold campaign ended {cold['state']}")
            check_identity("cold campaign", cold_specs, reference, checks)
            totals = check_reports(
                {t: run.reference[t] for t in cold_specs}, 0.0, checks,
                {t: r.spec for t, r in run.reference.items()},
            )
        first.include(_workers(cold_probes))
        misses, writes = cache.misses, cache.writes
        with tracing(tracer), Interval(run.probe) as second:
            warm, warm_specs, warm_probes = harness.campaign(
                "warm", targets, run.seed, workload.workers
            )
        second.include(_workers(warm_probes))
        checks.expect(warm["state"] == "done", f"warm campaign ended {warm['state']}")
        check_identity("warm campaign", warm_specs, reference, checks)
        checks.expect(
            cache.misses == misses and cache.writes == writes,
            f"warm campaign missed {cache.misses - misses} and wrote "
            f"{cache.writes - writes} cache entries",
        )
        cold_counters = [c for p in cold_probes for c in p["reports"]]
        warm_counters = [c for p in warm_probes for c in p["reports"]]
        checks.expect(
            sorted(c["target"] for c in cold_counters + warm_counters) == sorted(targets * 2),
            "the worker probe did not report every worker",
        )
        checks.expect(
            sum(c["remote_verbs"] for c in warm_counters) == 0,
            "warm campaign issued remote verbs",
        )
        summaries = harness.summaries(cold)
        for target, summary in summaries.items():
            checks.expect(
                summary["quarantined_samples"] == 0, f"{target}: samples quarantined"
            )
        phase_walls = sum(
            t["wall_s"]
            for status in (cold, warm)
            for summary in harness.summaries(status).values()
            for t in summary["phase_timings"].values()
        )
        probes = cold_probes + warm_probes
        layers.update(
            counters=cold_counters,
            phase_timings={t: s["phase_timings"] for t, s in summaries.items()},
            verify=totals,
            cache=cache.snapshot(),
            durable=harness.durable(),
            worker_overhead_s=first.wall_s + second.wall_s - phase_walls,
            worker_layers=[p["layers"] for p in probes],
            worker_counts=[p["counts"] for p in probes],
            worker_spans=[p["spans_file"] for p in probes if p["spans_file"].exists()],
        )
    finally:
        harness.close()
    return _unit_metrics(first, second, sum(c["remote_verbs"] for c in cold_counters), totals)


def run_unit(run, layers, tracer=None, rediscover=True):
    """One unit; the service's always has its warm half."""
    if run.workload.service:
        return service_unit(run, layers, tracer)
    return in_process_unit(run, layers, tracer, rediscover)


# -- set-up -------------------------------------------------------------


def setup_fixture(workload, scratch):
    """What a run needs before its first remote verb: the program
    imported, each target's machine and model built, the example
    programs parsed and, for the service workload, the service started
    and stopped again.  Prints this process's speed ratio."""
    probe = SpeedProbe(period=0.01).start()
    _import_program()
    from repro.machines.machine import RemoteMachine, build_model
    from repro.toyc.compiler import compile_to_ir

    for target in workload.targets:
        RemoteMachine(target, latency=workload.latency)
        build_model(target)
    for name in PROGRAMS:
        compile_to_ir(_program_source(name))
    if workload.service:
        ServiceHarness(tempfile.mkdtemp(dir=scratch), trace=False).close()
    probe.stop()
    print(json.dumps({"speed_ratio": probe.ratio()}))


def measure_setup(workload, scratch):
    """Median, at reference speed, of fresh-interpreter set-ups
    (start-up, imports and :func:`setup_fixture`)."""
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-only",
             "--workload", workload.name, "--scratch", str(scratch)],
            check=True, cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
        times.append(wall * json.loads(proc.stdout)["speed_ratio"])
    return statistics.median(times)


# -- per-layer metrics --------------------------------------------------


def layer_metrics(tracer, layers, overhead_s, checks):
    table = merge_tables(tracer.layers(), *layers.get("worker_layers", ()))
    counts = dict(tracer.counts)
    for extra in layers.get("worker_counts", ()):
        for key, value in extra.items():
            counts[key] = counts.get(key, 0) + value

    def row(name):
        return table.get(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})

    out = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = row(layer)["calls"]
        out[f"{layer}.self_s"] = row(layer)["self_s"]
    assembled = row("machines.assembler")
    out["machines.assembler.accept_ratio"] = (
        (assembled["calls"] - assembled["failed"]) / assembled["calls"]
        if assembled["calls"] else 0.0
    )
    out["machines.executor.steps"] = counts.get("machines.executor.steps", 0)
    out["machines.rtt_wait_s"] = row("machines.rtt_wait")["total_s"]
    counters = layers["counters"]
    out["discovery.scheduler.tasks"] = sum(c["scheduler_tasks"] for c in counters)
    out["discovery.scheduler.max_in_flight"] = max(
        (c["scheduler_max_in_flight"] for c in counters), default=0
    )
    out["discovery.mutation.attempted"] = sum(c["mutation_attempted"] for c in counters)
    out["discovery.mutation.succeeded"] = sum(c["mutation_succeeded"] for c in counters)
    out["discovery.resilience.retries"] = sum(c["retries"] for c in counters)
    hits = sum(c["memo_hits"] for c in counters)
    looked = hits + sum(c["memo_misses"] for c in counters)
    out["discovery.extract.memo_hit_rate"] = hits / looked if looked else 0.0
    timings = layers.get("phase_timings") or {c["target"]: c["phase_timings"] for c in counters}
    for phase in PHASES:
        key = phase.replace(" ", "_")
        for unit in ("wall_s", "cpu_s"):
            out[f"phase.{key}.{unit}"] = sum(
                t.get(phase, {}).get(unit, 0.0) for t in timings.values()
            )
    cache = layers.get("cache")
    out["discovery.cache.hits"] = cache.hits if cache else 0
    out["discovery.cache.misses"] = cache.misses if cache else 0
    out["discovery.cache.writes"] = cache.writes if cache else 0
    out["discovery.cache.get.self_s"] = row("discovery.cache.get")["self_s"]
    out["discovery.cache.put.self_s"] = row("discovery.cache.put")["self_s"]
    commits, size = layers.get("durable", (0, 0))
    out["discovery.durable.commits"] = commits
    out["discovery.durable.checkpoint_bytes"] = size
    requests = sorted(tracer.request_ms())
    out["service.request_ms.p50"] = _quantile(requests, 0.50)
    out["service.request_ms.p95"] = _quantile(requests, 0.95)
    out["service.worker_overhead_s"] = layers.get("worker_overhead_s", 0.0)
    out["analysis.verify.self_s"] = row("analysis.verify")["self_s"]
    out["analysis.verify.proven"] = layers["verify"]["proven"]
    out["analysis.verify.sampled"] = layers["verify"]["sampled"]
    out["failed_fraction"] = checks.failed / checks.attempted
    out["trace.overhead_s"] = overhead_s
    return out


def _quantile(ordered, q):
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- the run ------------------------------------------------------------


def stamp(workload, args):
    """What a result must carry to be compared across hosts and commits."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # an exported checkout: the source digest identifies it
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def measure(run, seconds):
    """The run's units, then its end-to-end metrics; returns (metrics,
    detail)."""
    workload = run.workload
    setup_s = measure_setup(workload, run.scratch)
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        units.append(run_unit(run, {}))
        now = time.perf_counter()
        # another unit only if it should end by the deadline, judged by this one
        if now + (now - began) > deadline:
            break
    metrics = {k: statistics.median(u[k] for u in units) for k in units[0] if k != "raw"}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, {"units": units}


def measure_traced(run):
    """One untraced unit and one traced unit, both without the second
    pass that only ``rediscover_s`` needs; returns (per-layer metrics,
    detail)."""
    untraced = run_unit(run, {}, rediscover=False)
    tracer = Tracer()
    layers = {}
    traced = run_unit(run, layers, tracer, rediscover=False)
    overhead = traced["discover_s"] - untraced["discover_s"]
    metrics = layer_metrics(tracer, layers, overhead, run.checks)
    spans = run.scratch.parent / f"spans-{run.workload.name}.jsonl"
    tracer.dump(spans, header={"workload": run.workload.name, "seed": run.seed})
    with open(spans, "a") as out:  # each worker's spans after its own header
        for path in layers.get("worker_spans", ()):
            out.write(path.read_text())
    return metrics, {"units": [untraced], "traced_unit": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--targets", help="comma-separated targets instead of the "
                        "workload's own (a reduced run, for the smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.targets:
        workload = Workload(**{**asdict(workload), "targets": tuple(args.targets.split(","))})
    if args.setup_only:
        setup_fixture(workload, pathlib.Path(args.scratch))
        return 0

    _import_program()
    # the program's own defaults, whatever the calling shell set
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    base = pathlib.Path.cwd() / ".perfbench"
    base.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(dir=base, prefix="run-"))
    run = Run(workload, args.seed, Checks(), scratch, SpeedProbe().start())
    try:
        if workload.service:
            run.reference = {t: discover(t, run.seed) for t in workload.targets}
        if args.trace:
            metrics, detail = measure_traced(run)
        else:
            metrics, detail = measure(run, args.seconds)
    finally:
        run.probe.stop()
        shutil.rmtree(run.scratch, ignore_errors=True)
    checks = run.checks
    units = END_TO_END if not args.trace else PER_LAYER
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"stamp": stamp(workload, args), "failures": checks.failures, **detail, **result}
    (base / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(result))
    # a measured run exits 0 and carries its verdict in ``correct``; a
    # non-zero exit means there was nothing to measure
    return 0


if __name__ == "__main__":
    sys.exit(main())
