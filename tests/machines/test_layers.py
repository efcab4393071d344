"""The machine-layer contract every connection-stack layer keeps.

Each layer is a :class:`~repro.layers.MachineLayer`: whatever it adds,
it must still look like the machine at the bottom of its stack, clone
into an independent connection of the same shape, run programs exactly
as the bare machine does, and hash to the same probe-cache fingerprint
(a changed fingerprint would orphan every cached probe shard).
"""

import pathlib

import pytest

from repro.beg.codegen import GeneratedBackend
from repro.discovery.cache import CachingMachine, ProbeCache, target_fingerprint
from repro.discovery.driver import ArchitectureDiscovery
from repro.discovery.resilience import ResilienceConfig, ResilientMachine
from repro.layers import MachineLayer, iter_layers
from repro.machines.faults import FaultyMachine
from repro.machines.machine import RemoteMachine, target_names
from repro.toyc.frontend import parse
from tests.discovery.conftest import discovery_report

GCD = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "programs" / "gcd.a"
).read_text()

#: fingerprints of the bare machines, as computed before the layers
#: shared a base class; probe-cache shards on disk are named by these
FINGERPRINTS = {
    "alpha": "f4fa2eb75d20d93e",
    "m68k": "a7918872831e72a2",
    "mips": "0700428a366bb9df",
    "sparc": "e73b633173f1842a",
    "vax": "3c204be331f2b2ce",
    "x86": "c67d1d8051bce44b",
}


def _driver_stack(target):
    """The connection stack the discovery driver builds on a flaky
    target with a probe cache: cache over resilience over faults."""
    machine = FaultyMachine(RemoteMachine(target), rate=0.0)
    driver = ArchitectureDiscovery(
        machine, resilience=ResilienceConfig(), cache=ProbeCache(), workers=1
    )
    driver.scheduler.close()
    driver.extractor.close()
    return driver.machine


STACKS = {
    "faulty": (
        lambda t: FaultyMachine(RemoteMachine(t), rate=0.0),
        [FaultyMachine, RemoteMachine],
    ),
    "resilient": (
        lambda t: ResilientMachine(RemoteMachine(t)),
        [ResilientMachine, RemoteMachine],
    ),
    "caching": (
        lambda t: CachingMachine(RemoteMachine(t), ProbeCache()),
        [CachingMachine, RemoteMachine],
    ),
    "driver": (
        _driver_stack,
        [CachingMachine, ResilientMachine, FaultyMachine, RemoteMachine],
    ),
}


@pytest.fixture(params=sorted(STACKS))
def stack(request):
    build, classes = STACKS[request.param]
    return build("vax"), classes


@pytest.fixture(scope="module")
def gcd_asm():
    return GeneratedBackend(discovery_report("vax").spec).compile_ir(parse(GCD))


def test_pass_throughs_name_the_bottom_machine(stack):
    machine, _ = stack
    bottom = list(iter_layers(machine))[-1]
    assert isinstance(bottom, RemoteMachine)
    assert machine.target is bottom.target == "vax"
    assert machine.toolchain is bottom.toolchain
    assert machine.stats is bottom.stats


def test_iter_layers_walks_outermost_to_innermost(stack):
    machine, classes = stack
    layers = list(iter_layers(machine))
    assert [type(layer) for layer in layers] == classes
    assert layers[0] is machine
    assert all(isinstance(layer, MachineLayer) for layer in layers)


def test_clone_is_same_shape_over_a_fresh_connection(stack):
    machine, classes = stack
    clone = machine.clone_connection(1)
    assert [type(layer) for layer in iter_layers(clone)] == classes
    bottom = list(iter_layers(machine))[-1]
    clone_bottom = list(iter_layers(clone))[-1]
    assert clone_bottom is not bottom
    assert clone.stats is clone_bottom.stats
    assert clone.stats is not machine.stats


def test_runs_programs_like_the_bare_machine(stack, gcd_asm):
    machine, _ = stack
    bare = RemoteMachine("vax").run_asm([gcd_asm])
    result = machine.run_asm([gcd_asm])
    assert result.output == bare.output == "67\n"
    assert machine.assembles_ok("garbage") is False
    assert machine.stats.assembly_errors == 1


def test_fingerprint_is_the_bare_machines(stack):
    machine, _ = stack
    assert target_fingerprint(machine) == target_fingerprint(RemoteMachine("vax"))


@pytest.mark.parametrize("target", target_names())
def test_fingerprints_unchanged_for_every_target(target):
    assert target_fingerprint(RemoteMachine(target)) == FINGERPRINTS[target]
    assert target_fingerprint(_driver_stack(target)) == FINGERPRINTS[target]
