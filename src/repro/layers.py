"""The one abstraction every target-connection stack is built from.

The discovery unit sees the target only through four remote verbs --
compile C, assemble, link, execute -- and a connection is a stack of
layers over that surface: the :class:`~repro.machines.machine.
RemoteMachine` at the bottom, then optionally fault injection, retry /
voting and the probe cache.  :class:`MachineLayer` writes the shared
part once:

* the ``target`` / ``toolchain`` / ``stats`` pass-throughs, which
  always name the bottom machine's objects;
* the four verbs, each routed through one hook, :meth:`MachineLayer.
  around`, whose default simply calls through;
* the conveniences ``assembles_ok``, ``run_c`` and ``run_asm``, written
  in terms of the verbs, so each step passes through every layer.

A layer overrides ``around`` (or individual verbs, when it swaps
handles) plus ``clone_connection``.  Anything that needs to look
beneath the top of a stack walks it with :func:`iter_layers`.

This module lives outside :mod:`repro.machines` on purpose: the
discovery package builds its own layers on it, and discovery never
imports target internals.
"""

from __future__ import annotations

from repro.errors import AssemblerError


class MachineLayer:
    """One layer of a connection stack, wrapping the machine *inner*."""

    def __init__(self, inner):
        self.inner = inner

    # -- pass-throughs ------------------------------------------------

    @property
    def target(self):
        return self.inner.target

    @property
    def toolchain(self):
        return self.inner.toolchain

    @property
    def stats(self):
        """Invocation counters of the real machine at the bottom."""
        return self.inner.stats

    # -- the four remote verbs ----------------------------------------

    def around(self, verb, call, *args):
        """Run one remote verb -- ``"compile"``, ``"assemble"``,
        ``"link"`` or ``"execute"`` -- as ``call(*args)`` on the layer
        below.  The hook a layer overrides to act on every verb."""
        return call(*args)

    def compile_c(self, source, headers=None):
        return self.around("compile", self.inner.compile_c, source, headers)

    def assemble(self, asm_text):
        return self.around("assemble", self.inner.assemble, asm_text)

    def link(self, objects):
        return self.around("link", self.inner.link, objects)

    def execute(self, executable):
        return self.around("execute", self.inner.execute, executable)

    # -- conveniences ---------------------------------------------------

    def assembles_ok(self, asm_text):
        """Accept/reject probe: does the assembler take this program?"""
        try:
            self.assemble(asm_text)
        except AssemblerError:
            return False
        return True

    def run_c(self, sources, headers=None):
        """compile + assemble + link + execute a list of C sources."""
        objects = [self.assemble(self.compile_c(src, headers)) for src in sources]
        return self.execute(self.link(objects))

    def run_asm(self, asm_texts):
        """assemble + link + execute a list of assembly sources."""
        objects = [self.assemble(text) for text in asm_texts]
        return self.execute(self.link(objects))


def iter_layers(machine):
    """Yield *machine* and every layer beneath it, outermost first."""
    while machine is not None:
        yield machine
        machine = getattr(machine, "inner", None)
