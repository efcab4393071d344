"""The mutation engine (paper Figure 5).

Mutations -- delete, move, copy, rename, renameAll, clobber -- transform
the tokenized region of a sample; the mutated sample is reassembled,
relinked against the original ``init.o`` and executed on the target.  A
mutation *succeeds* when every variant of it produces exactly the output
of the original sample, under every registered initialisation-value set.
Variants differ in clobber values (Figure 6: "two variant mutations are
constructed using different clobbering values") and rename targets, so a
mutation cannot succeed by chance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import wordops
from repro.discovery.asmmodel import DInstr, DReg


# -- pure structural mutations ------------------------------------------


def delete(instrs, index):
    """Remove instruction *index*, preserving its labels."""
    out = [i.clone() for i in instrs]
    victim = out.pop(index)
    if victim.labels:
        if index < len(out):
            out[index] = out[index].clone(labels=victim.labels + out[index].labels)
        else:
            out.append(DInstr("", [], labels=victim.labels))
    return out

def insert(instrs, index, new_instrs):
    """Insert instructions before position *index*."""
    out = [i.clone() for i in instrs]
    for offset, instr in enumerate(new_instrs):
        out.insert(index + offset, instr.clone())
    return out


def move(instrs, src, dst):
    """Move instruction *src* so it lands at position *dst* (pre-removal
    indexing)."""
    out = [i.clone() for i in instrs]
    instr = out.pop(src)
    if dst > src:
        dst -= 1
    out.insert(dst, instr)
    return out


def copy(instrs, src, after):
    """Duplicate instruction *src* after position *after*."""
    out = [i.clone() for i in instrs]
    duplicate = out[src].clone(labels=[])
    out.insert(after + 1, duplicate)
    return out


def rename(instrs, old, new, occurrences):
    """Rename register *old* to *new* at the given (instr, operand)
    occurrence pairs."""
    by_instr = {}
    for instr_idx, op_idx in occurrences:
        by_instr.setdefault(instr_idx, set()).add(op_idx)
    out = []
    for idx, instr in enumerate(instrs):
        if idx in by_instr:
            out.append(instr.rename_register(old, new, positions=by_instr[idx]))
        else:
            out.append(instr.clone())
    return out


def rename_all(instrs, old, new):
    return [instr.rename_register(old, new) for instr in instrs]


# -- the execution side ---------------------------------------------------


@dataclass
class MutationStats:
    attempted: int = 0
    succeeded: int = 0
    runs: int = 0

    def add(self, counts):
        """Fold in another tally (a fork's counters, a record's delta)."""
        for name, value in counts.items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class ValueSet:
    """One initialisation-value assignment plus the output the original
    region produces under it."""

    values: dict
    expected: str


class MutationEngine:
    """Runs mutations of a sample against the target and judges them."""

    def __init__(self, corpus, word_bits=32, seed=42, variants=2, rng=None):
        self.corpus = corpus
        self.word_bits = word_bits
        self.seed = seed
        # An injected rng lets a driver share one seeded stream across
        # components; otherwise the engine owns a private seeded stream
        # so mutation schedules replay bit-for-bit from the seed.
        self.rng = rng if rng is not None else random.Random(seed)
        self.variants = variants
        self.stats = MutationStats()
        self._value_sets = {}  # sample name -> list[ValueSet]
        self._clobber_safe = {}  # sample name -> list[str]

    def fork(self, token, machine=None):
        """A per-task engine for the parallel scheduler.

        The fork shares the corpus-wide caches (value sets and
        clobber-safe lists are keyed per sample; the functional-register
        set and the safe-set guess must be precomputed *before* forking)
        but owns a private rng seeded by ``(seed, token)`` and private
        stats.  Randomness therefore depends only on the task's stable
        token -- never on how tasks interleave across workers -- which
        is what makes discovery deterministic for any worker count.
        """
        clone = MutationEngine.__new__(MutationEngine)
        clone.corpus = self.corpus.bind(machine) if machine is not None else self.corpus
        clone.word_bits = self.word_bits
        clone.seed = self.seed
        # str seeding hashes via SHA-512 internally: stable across runs
        # and processes, unlike hash().
        clone.rng = random.Random(f"{self.seed}:{token}")
        clone.variants = self.variants
        clone.stats = MutationStats()
        clone._value_sets = self._value_sets
        clone._clobber_safe = self._clobber_safe
        clone._safe_guess = self._safe_guess
        clone._functional = self._functional
        return clone

    # -- value sets ---------------------------------------------------------

    def value_sets(self, sample):
        """Initialisation-value sets a mutation must survive.  Conditional
        samples get extra sets that flip the branch, so deleting the
        branch cannot masquerade as a successful mutation."""
        if sample.name in self._value_sets:
            return self._value_sets[sample.name]
        sets = [ValueSet(dict(sample.values), sample.expected_output)]
        if sample.kind in ("cond", "truth"):
            for alternate in self._flip_values(sample):
                result = self.corpus.run(sample, None, values=alternate)
                if result is not None and result.ok:
                    sets.append(ValueSet(alternate, result.output))
        self._value_sets[sample.name] = sets
        return sets

    def _flip_values(self, sample):
        base = dict(sample.values)
        if sample.kind == "truth":
            off = dict(base)
            off["b"] = 0
            return [off]
        swapped = dict(base)
        swapped["b"], swapped["c"] = base["c"], base["b"]
        equal = dict(base)
        equal["c"] = equal["b"]
        return [swapped, equal]

    # -- clobber support -------------------------------------------------------

    def clobber_value(self):
        lo = -(2 ** (self.word_bits - 1))
        hi = 2 ** (self.word_bits - 1) - 1
        value = self.rng.randint(lo, hi)
        if wordops.mask(value, self.word_bits) in (0, 1):
            value = 0x5EED
        return value

    def clobber_instr(self, reg, value=None):
        value = self.clobber_value() if value is None else value
        return self.corpus.syntax.load_imm_instr(value, reg)

    _safe_guess = None

    def clobber_safe_registers(self, sample):
        """Registers whose clobbering at region start leaves the sample's
        output unchanged (so mutations may freely overwrite them)."""
        if sample.name in self._clobber_safe:
            return self._clobber_safe[sample.name]
        safe = None
        if self._safe_guess:
            # Fast path: the safe set rarely changes between samples.
            if self._check_all_safe(sample, self._safe_guess):
                safe = list(self._safe_guess)
        if safe is None:
            safe = []
            for reg in sorted(self.corpus.syntax.registers):
                if self._check_all_safe(sample, [reg]):
                    safe.append(reg)
        self._clobber_safe[sample.name] = safe
        self._safe_guess = safe
        return safe

    def _check_all_safe(self, sample, regs):
        for _ in range(2):
            clobbers = [self.clobber_instr(reg) for reg in regs]
            mutated = insert(sample.region, 0, clobbers)
            if not self._run_once(sample, mutated, self.value_sets(sample)[0]):
                return False
        return True

    def clobber_all_prefix(self, sample):
        """Clobber instructions for every safe register (Figure 6's
        "clobber all registers with random values")."""
        return [self.clobber_instr(reg) for reg in self.clobber_safe_registers(sample)]

    _functional = None

    def functional_registers(self):
        """Registers that actually hold values (the SPARC's hardwired
        ``%g0`` reads as zero and fails this probe).  Tested by renaming
        the register of a literal sample (``a = 1235``) to each candidate
        and checking the sample still prints 1235.  The paper lists this
        as unimplemented ("we currently do not test for registers with
        hardwired values"); mutation analysis covers it naturally."""
        if self._functional is not None:
            return self._functional
        pivot_sample = None
        pivot_reg = None
        for sample in self.corpus.usable_samples(kind="literal"):
            region_regs = [
                op.name
                for instr in sample.region
                for op in instr.operands
                if isinstance(op, DReg)
            ]
            if len(set(region_regs)) == 1:
                pivot_sample, pivot_reg = sample, region_regs[0]
                break
        if pivot_sample is None:
            self._functional = sorted(self.corpus.syntax.registers)
            return self._functional
        functional = []
        for reg in sorted(self.corpus.syntax.registers):
            if reg == pivot_reg:
                functional.append(reg)
                continue
            mutated = rename_all(pivot_sample.region, pivot_reg, reg)
            if self._run_once(
                pivot_sample, mutated, self.value_sets(pivot_sample)[0]
            ):
                functional.append(reg)
        self._functional = functional
        return functional

    def hardwired_value(self, reg):
        """The constant a non-functional register reads as, or None.

        Rename two different literal samples' pivot register to *reg*:
        a hardwired register prints the same constant both times.
        """
        outputs = []
        seen_values = set()
        for sample in self.corpus.usable_samples(kind="literal"):
            region_regs = [
                op.name
                for instr in sample.region
                for op in instr.operands
                if isinstance(op, DReg)
            ]
            if len(set(region_regs)) != 1:
                continue
            literal = int(sample.expected_output.strip())
            if literal in seen_values:
                continue
            seen_values.add(literal)
            mutated = rename_all(sample.region, region_regs[0], reg)
            result = self.corpus.run(sample, mutated)
            if result is None or not result.ok:
                return None
            outputs.append(int(result.output.strip()))
            if len(outputs) == 2:
                break
        if len(outputs) == 2 and outputs[0] == outputs[1]:
            return outputs[0]
        return None

    def fresh_registers(self, sample, count=1, exclude=()):
        """Functional, clobber-safe registers not appearing in the region."""
        used = set(exclude)
        for instr in sample.region:
            used.update(instr.registers())
        functional = set(self.functional_registers())
        out = []
        for reg in self.clobber_safe_registers(sample):
            if reg not in used and reg in functional:
                out.append(reg)
            if len(out) == count:
                break
        return out

    def rename_targets(self, sample, reg, occurrences, count=2):
        """Fresh registers the assembler *accepts* in place of *reg* at
        the given occurrences.  Register-class architectures (the 68000's
        data/address split) reject cross-class renames; such a rejection
        says nothing about liveness, so those candidates are filtered out
        by an assemble-only probe before any mutation is judged."""
        out = []
        for candidate in self.fresh_registers(sample, count=8, exclude={reg}):
            mutated = rename(sample.region, reg, candidate, occurrences)
            text = self.corpus.render_main(sample, mutated)
            if self.corpus.machine.assembles_ok(text):
                out.append(candidate)
            if len(out) == count:
                break
        return out

    # -- judging mutations -------------------------------------------------------

    def _run_once(self, sample, instrs, value_set):
        self.stats.runs += 1
        result = self.corpus.run(sample, instrs, values=value_set.values)
        return result is not None and result.ok and result.output == value_set.expected

    def succeeds(self, sample, build_variant):
        """Judge a mutation: *build_variant(rng)* constructs one variant
        instruction list; every variant must match the original output
        under every value set."""
        self.stats.attempted += 1
        sets = self.value_sets(sample)
        for _ in range(self.variants):
            instrs = build_variant(self.rng)
            if instrs is None:
                return False
            for value_set in sets:
                if not self._run_once(sample, instrs, value_set):
                    return False
        self.stats.succeeded += 1
        return True

    def succeeds_static(self, sample, instrs):
        """Judge a fixed instruction list (no per-variant randomness)."""
        return self.succeeds(sample, lambda rng: instrs)
