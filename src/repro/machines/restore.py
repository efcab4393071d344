"""Rebuild a target-machine stack from a durable run's manifest.

A durable run directory's ``run.json`` records the connection
parameters a discovery campaign was started with (target, simulated
latency, execution fuel, fault plan).  :func:`machine_from_manifest`
rebuilds the same facade stack so ``discover --resume`` talks to an
identically configured target without the user re-supplying any flags
-- the manifest, not the command line, is the source of truth.

This lives in :mod:`repro.machines` (not the discovery package) on
purpose: discovery treats the target as a black box and never
constructs machines itself.
"""

from __future__ import annotations

from repro.machines.faults import FaultyMachine
from repro.machines.machine import RemoteMachine


def machine_from_manifest(config):
    """Build the (possibly fault-injected) target machine described by
    a durable run's ``run.json`` manifest dict.  Fresh CLI runs build
    theirs from the same dict shape, so the two cannot drift apart."""
    kwargs = {}
    if config.get("fuel") is not None:
        kwargs["fuel"] = config["fuel"]
    machine = RemoteMachine(
        config["target"], latency=config.get("latency") or 0.0, **kwargs
    )
    if config.get("flaky"):
        seed = config.get("fault_seed")
        machine = FaultyMachine(
            machine, rate=config["flaky"], seed=0xFA17 if seed is None else seed
        )
    return machine


def machine_stats_classes():
    """The facade-level observability dataclasses a checkpointed report
    may carry (``report.machine_stats`` / ``report.fault_stats``).
    Exposed here so the discovery package's portable codec can register
    them without importing machine internals."""
    from repro.machines.faults import FaultStats
    from repro.machines.machine import MachineStats

    return MachineStats, FaultStats
