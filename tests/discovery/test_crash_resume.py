"""Crash-durability acceptance: kill the driver anywhere, resume, and
get a bit-for-bit identical spec.

The sweep covers every phase boundary in the driver's phase table
(before and after each phase), plus mid-phase per-sample boundaries in
each fan-out phase, on a healthy target and on a flaky one behind the
resilience layer; a subprocess SIGKILL test covers *real* process death
with no Python unwinding at all.  All in-process vax legs share one
probe cache, so each crash-and-resume pair costs roughly one warm run.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.durable import DurableRun, machine_from_config
from repro.discovery.resilience import ResilienceConfig
from repro.machines.crashes import CrashPlan, SimulatedCrash
from repro.machines.faults import FaultyMachine
from repro.machines.machine import RemoteMachine

PHASES = [name for name, _ in ArchitectureDiscovery.PHASES]

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def cachedir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("probe-cache"))


@pytest.fixture(scope="module")
def vax_ref_spec(cachedir):
    """The uninterrupted reference spec (and the cache warm-up)."""
    report = ArchitectureDiscovery(
        RemoteMachine("vax"), workers=1, cache=cachedir
    ).run()
    return report.spec.render_beg()


def _crash_then_resume(plan, rundir, cache=None, make_driver=None, workers=1):
    """Run until *plan* fires, then resume from disk exactly as the CLI
    would: machine and knobs reconstructed from the run manifest."""
    if make_driver is None:
        def make_driver(machine, resilience, **kwargs):
            return ArchitectureDiscovery(
                machine, resilience=resilience, workers=workers, **kwargs
            )

    driver = make_driver(
        RemoteMachine("vax"),
        ResilienceConfig(),
        cache=cache,
        run_dir=str(rundir),
        crash_plan=plan,
    )
    with pytest.raises(SimulatedCrash):
        driver.run()

    run = DurableRun.open(str(rundir))
    machine, resilience = machine_from_config(run.config)
    checkpoint, warnings = run.load_checkpoint()
    assert warnings == []
    resumed = make_driver(
        machine,
        resilience,
        cache=cache,
        run_dir=run,
        checkpoint_every=run.config["checkpoint_every"],
    )
    return resumed.run(resume=checkpoint)


# -- the healthy sweep ---------------------------------------------------


@pytest.mark.parametrize(
    "kind,phase",
    [(plan.kind, plan.phase) for plan in CrashPlan.sweep(PHASES)],
    ids=[f"{p.kind}-{p.phase.replace(' ', '_')}" for p in CrashPlan.sweep(PHASES)],
)
def test_crash_at_every_phase_boundary(kind, phase, tmp_path, cachedir, vax_ref_spec):
    plan = CrashPlan(kind=kind, phase=phase)
    report = _crash_then_resume(plan, tmp_path / "run", cache=cachedir)
    assert report.spec.render_beg() == vax_ref_spec


@pytest.mark.parametrize(
    "spec",
    [
        "sample:sample_generation:1",
        "sample:register_discovery:3",
        "sample:mutation_analysis:2",
        "sample:mutation_analysis:5",
        "sample:reverse_interpretation:1",
    ],
)
def test_crash_mid_phase_sample_boundary(spec, tmp_path, cachedir, vax_ref_spec):
    report = _crash_then_resume(
        CrashPlan.parse(spec), tmp_path / "run", cache=cachedir
    )
    assert report.spec.render_beg() == vax_ref_spec


@pytest.mark.parametrize(
    "spec",
    [
        "sample:sample_generation:9",
        "sample:sample_generation:16",  # the last record, before the phase ends
        "sample:register_discovery:1",  # the first seed chunk
        "sample:register_discovery:12",
        "sample:register_discovery:57",
        "sample:register_discovery:111",
        "sample:region_extraction:1",
        "sample:region_extraction:9",
        "sample:mutation_analysis:1",  # right after the engine setup record
        "sample:mutation_analysis:16",
        "sample:reverse_interpretation:17",
        "sample:reverse_interpretation:30",
    ],
)
def test_crash_at_journal_record_boundary(spec, tmp_path, cachedir, vax_ref_spec):
    """Kills right after a journal append, across every record phase:
    the resumed state is the opening snapshot plus the replayed journal,
    and it must land on the reference spec."""
    report = _crash_then_resume(
        CrashPlan.parse(spec), tmp_path / "run", cache=cachedir
    )
    assert report.spec.render_beg() == vax_ref_spec


def _snapshot_only_records(progress):
    """Completion records in the shapes the snapshot-only layout wrote:
    sample-name lists, confirmed-register lists, no setup records."""
    legacy = {}
    for phase, store in progress.items():
        shaped = {}
        for key, payload in store.items():
            if key == "setup":
                continue
            if phase == "register discovery":
                payload = payload["confirmed"]
            elif phase == "mutation analysis":
                payload = list(payload["samples"])
            elif phase == "sample generation":
                payload = list(payload)
            shaped[key] = payload
        legacy[phase] = shaped
    return legacy


def test_snapshot_only_run_directory_resumes(tmp_path, cachedir, vax_ref_spec):
    """A run directory from before the journal -- one mid-phase snapshot,
    legacy-shaped records, no journal file -- still resumes to the
    identical spec."""
    rundir = tmp_path / "crashed"
    driver = ArchitectureDiscovery(
        RemoteMachine("vax"),
        workers=1,
        cache=cachedir,
        run_dir=str(rundir),
        crash_plan=CrashPlan.parse("sample:mutation_analysis:3"),
    )
    with pytest.raises(SimulatedCrash):
        driver.run()
    checkpoint, _ = DurableRun.open(str(rundir)).load_checkpoint()
    checkpoint.state["progress"] = _snapshot_only_records(
        checkpoint.state["progress"]
    )

    legacy = DurableRun.attach(tmp_path / "legacy", DurableRun.open(str(rundir)).config)
    legacy.commit(checkpoint)
    for journal in legacy.directory.glob("journal-*.log"):
        journal.unlink()

    run = DurableRun.open(str(legacy.directory))
    machine, resilience = machine_from_config(run.config)
    resumed, warnings = run.load_checkpoint()
    assert warnings == []
    report = ArchitectureDiscovery(
        machine,
        resilience=resilience,
        workers=1,
        cache=cachedir,
        run_dir=run,
        checkpoint_every=run.config["checkpoint_every"],
    ).run(resume=resumed)
    assert report.spec.render_beg() == vax_ref_spec


def test_resume_with_different_worker_count(tmp_path, cachedir, vax_ref_spec):
    """Venue independence survives the crash boundary: a run killed at
    workers=1 resumed at workers=2 still lands on the reference spec."""
    plan = CrashPlan.parse("sample:mutation_analysis:2")
    rundir = tmp_path / "run"
    driver = ArchitectureDiscovery(
        RemoteMachine("vax"),
        workers=1,
        cache=cachedir,
        run_dir=str(rundir),
        crash_plan=plan,
    )
    with pytest.raises(SimulatedCrash):
        driver.run()
    run = DurableRun.open(str(rundir))
    machine, resilience = machine_from_config(run.config)
    checkpoint, _ = run.load_checkpoint()
    report = ArchitectureDiscovery(
        machine,
        resilience=resilience,
        workers=2,
        cache=cachedir,
        run_dir=run,
        checkpoint_every=run.config["checkpoint_every"],
    ).run(resume=checkpoint)
    assert report.spec.render_beg() == vax_ref_spec


def test_cold_cache_resume_identical(tmp_path, vax_ref_spec):
    """No cache at all: resume must re-probe its way to the same spec."""
    report = _crash_then_resume(
        CrashPlan.parse("after:region_extraction"), tmp_path / "run", cache=None
    )
    assert report.spec.render_beg() == vax_ref_spec


# -- the flaky leg -------------------------------------------------------


@pytest.fixture(scope="module")
def flaky_ref_spec():
    machine = FaultyMachine(RemoteMachine("sparc"), rate=0.08, seed=0xFA17)
    report = ArchitectureDiscovery(
        machine, resilience=ResilienceConfig(votes=3), workers=1
    ).run()
    return report.spec.render_beg()


@pytest.mark.parametrize(
    "spec",
    [
        "after:register_discovery",
        "sample:mutation_analysis:4",
        "sample:reverse_interpretation:1",
    ],
)
def test_crash_resume_on_flaky_target(spec, tmp_path, flaky_ref_spec):
    def make_driver(machine, resilience, **kwargs):
        if not isinstance(machine, FaultyMachine):
            machine = FaultyMachine(RemoteMachine("sparc"), rate=0.08, seed=0xFA17)
            resilience = ResilienceConfig(votes=3)
        return ArchitectureDiscovery(
            machine, resilience=resilience, workers=1, **kwargs
        )

    report = _crash_then_resume(
        CrashPlan.parse(spec), tmp_path / "run", make_driver=make_driver
    )
    assert report.spec.render_beg() == flaky_ref_spec


# -- real process death (SIGKILL e2e) ------------------------------------


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _spec_section(stdout):
    """Everything after the first blank line: the rendered spec (the
    summary above it carries timings, which legitimately differ)."""
    return stdout.split("\n\n", 1)[1]


def test_sigkill_subprocess_resume_identical(tmp_path, cachedir):
    rundir = tmp_path / "run"
    killed = _cli(
        [
            "discover", "vax",
            "--run-dir", str(rundir),
            "--cache-dir", cachedir,
            "--crash-at", "sample:mutation_analysis:2",
            "--crash-kill",
        ],
        cwd=tmp_path,
    )
    assert killed.returncode == -9, killed.stderr  # actual SIGKILL death
    assert (rundir / "run.json").exists()
    assert list(rundir.glob("ckpt-*.bin")), "no checkpoint survived the kill"

    resumed = _cli(["discover", "--resume", str(rundir)], cwd=tmp_path)
    assert resumed.returncode == 0, resumed.stderr

    reference = _cli(["discover", "vax", "--cache-dir", cachedir], cwd=tmp_path)
    assert reference.returncode == 0, reference.stderr
    assert _spec_section(resumed.stdout) == _spec_section(reference.stdout)


# -- the harness itself --------------------------------------------------


def test_crash_plan_parse_and_describe():
    plan = CrashPlan.parse("sample:mutation_analysis:3")
    assert (plan.kind, plan.phase, plan.index) == ("sample", "mutation analysis", 3)
    assert "mutation analysis" in plan.describe()
    assert CrashPlan.parse("before:enquire").kind == "before"
    with pytest.raises(ValueError):
        CrashPlan.parse("during:enquire")
    with pytest.raises(ValueError):
        CrashPlan.parse("sample:enquire:many")
    with pytest.raises(ValueError):
        CrashPlan.parse("sample")


def test_crash_plan_fires_once():
    plan = CrashPlan.parse("sample:mutation_analysis:2")
    assert not plan.matches("sample", "mutation analysis", 1)
    assert plan.matches("sample", "mutation analysis", 2)
    assert plan.matches("sample", "mutation analysis", 7)  # >= index
    with pytest.raises(SimulatedCrash):
        plan.check("sample", "mutation analysis", 2)
    assert plan.fired
    plan.check("sample", "mutation analysis", 3)  # spent: never refires


def test_crash_plan_sweep_covers_the_table():
    plans = CrashPlan.sweep(PHASES)
    assert len(plans) == 2 * len(PHASES)
    assert {p.phase for p in plans} == set(PHASES)
    assert {p.kind for p in plans} == {"before", "after"}


def test_crash_plan_random_is_seeded():
    a = CrashPlan.random(42, PHASES)
    b = CrashPlan.random(42, PHASES)
    assert (a.kind, a.phase, a.index) == (b.kind, b.phase, b.index)
    assert a.phase in PHASES


def test_simulated_crash_is_not_an_exception():
    """Quarantine/retry machinery must never absorb a crash."""
    assert not issubclass(SimulatedCrash, Exception)
    assert issubclass(SimulatedCrash, BaseException)
