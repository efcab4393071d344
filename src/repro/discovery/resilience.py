"""Resilience machinery for probing an unreliable remote target.

The paper assumes the target toolchain answers every ``rsh`` faithfully;
a deployed discovery unit cannot.  This module provides the three
defences the driver wires through the probe loop:

* :class:`RetryPolicy` -- exponential backoff with deterministic jitter
  and a per-run retry budget, applied to every remote verb.
* :class:`CircuitBreaker` -- a per-probe-class breaker that stops
  hammering a persistently failing interaction and later lets a trial
  call through (closed -> open -> half-open -> closed).
* **Majority voting** over repeated executions, so a single corrupted
  run cannot forge a mutation verdict (``ExecResult.same_result`` is the
  paper's success criterion; its trustworthiness is what the whole
  analysis rests on).

:class:`ResilientMachine` packages all three as one
:class:`~repro.layers.MachineLayer`: retry and the breaker live in its
``around`` hook, voting in its ``execute`` override, so the rest of the
discovery unit stays oblivious.  The fast path is free: with no faults
and ``votes=1`` every verb is a single delegated call -- zero extra
target executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    PermanentTargetError,
    RETRYABLE_ERRORS,
    TargetTimeoutError,
    TransientTargetError,
)
from repro.layers import MachineLayer


@dataclass
class RetryStats:
    """Counters the driver surfaces in the DiscoveryReport."""

    attempts: int = 0
    retries: int = 0
    transient_errors: int = 0
    timeouts: int = 0
    gave_up: int = 0
    vote_runs: int = 0
    vote_conflicts: int = 0
    breaker_rejections: int = 0
    total_backoff: float = 0.0

    def add(self, other):
        """Accumulate another connection's counters (pool aggregation)."""
        self.attempts += other.attempts
        self.retries += other.retries
        self.transient_errors += other.transient_errors
        self.timeouts += other.timeouts
        self.gave_up += other.gave_up
        self.vote_runs += other.vote_runs
        self.vote_conflicts += other.vote_conflicts
        self.breaker_rejections += other.breaker_rejections
        self.total_backoff += other.total_backoff
        return self


class RetryPolicy:
    """Exponential backoff with deterministic jitter and a retry budget.

    ``max_retries`` is the number of *re*-attempts after the first try;
    ``budget`` (optional) caps total retries across a whole discovery
    run, so a pathologically flaky target degrades into quarantine
    instead of burning unbounded target time.  Backoff delays are
    computed deterministically from ``jitter_seed`` but not slept by
    default (``sleep=None``): the simulated target has no real latency,
    and tests assert on the schedule instead.
    """

    def __init__(
        self,
        max_retries=4,
        base_delay=0.05,
        max_delay=2.0,
        jitter=0.5,
        jitter_seed=0x7E57,
        budget=None,
        sleep=None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.budget = budget
        self.sleep = sleep
        self.stats = RetryStats()
        self._jitter_seed = jitter_seed
        self._rng = random.Random(jitter_seed)

    def backoff_schedule(self, attempts=None, seed=None):
        """The delay before each retry: ``base * 2^n`` capped at
        ``max_delay``, scaled by a jitter factor in ``[1-j, 1+j]``.
        Deterministic preview of the schedule ``call`` would follow from
        a fresh policy with the same jitter seed."""
        rng = random.Random(self._jitter_seed if seed is None else seed)
        n = self.max_retries if attempts is None else attempts
        out = []
        for attempt in range(n):
            raw = min(self.base_delay * (2**attempt), self.max_delay)
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(raw * factor)
        return out

    def _delay(self, attempt):
        raw = min(self.base_delay * (2**attempt), self.max_delay)
        factor = 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return raw * factor

    def call(self, fn, *args, **kwargs):
        """Invoke *fn*, retrying transient target errors.

        The first attempt is made directly -- on success the policy has
        added nothing.  When retries (or the run-wide budget) are
        exhausted the last transient error propagates, which callers
        translate into quarantine.
        """
        attempt = 0
        while True:
            self.stats.attempts += 1
            try:
                return fn(*args, **kwargs)
            except RETRYABLE_ERRORS as exc:
                self.stats.transient_errors += 1
                if isinstance(exc, TargetTimeoutError):
                    self.stats.timeouts += 1
                if attempt >= self.max_retries or not self._spend_budget():
                    self.stats.gave_up += 1
                    raise
                delay = self._delay(attempt)
                self.stats.total_backoff += delay
                if self.sleep is not None:
                    self.sleep(delay)
                self.stats.retries += 1
                attempt += 1

    def _spend_budget(self):
        if self.budget is None:
            return True
        return self.budget.spend()


@dataclass
class ExecutionBudget:
    """A run-wide cap on extra target interactions spent on recovery."""

    limit: int
    spent: int = 0

    def spend(self, n=1):
        if self.spent + n > self.limit:
            return False
        self.spent += n
        return True

    @property
    def remaining(self):
        return max(0, self.limit - self.spent)


class CircuitBreaker:
    """Per-key breaker over probe classes (one key per remote verb, or
    any finer-grained class a caller chooses).

    ``failure_threshold`` consecutive gave-up failures open the circuit;
    while open, calls are rejected instantly (no target time burned)
    until ``cooldown_calls`` rejections have accumulated, after which
    the breaker goes half-open and admits one trial call.  A successful
    trial closes the circuit; a failed one re-opens it.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, failure_threshold=5, cooldown_calls=8):
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self._state = {}  # key -> (state, consecutive_failures, rejections)

    def state(self, key):
        return self._state.get(key, (self.CLOSED, 0, 0))[0]

    def allow(self, key):
        """May a call for *key* proceed?  Advances open -> half-open."""
        state, failures, rejections = self._state.get(key, (self.CLOSED, 0, 0))
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN:
            return True
        rejections += 1
        if rejections >= self.cooldown_calls:
            self._state[key] = (self.HALF_OPEN, failures, 0)
            return True
        self._state[key] = (state, failures, rejections)
        return False

    def record_success(self, key):
        self._state[key] = (self.CLOSED, 0, 0)

    def record_failure(self, key):
        state, failures, _rejections = self._state.get(key, (self.CLOSED, 0, 0))
        failures += 1
        if state == self.HALF_OPEN or failures >= self.failure_threshold:
            self._state[key] = (self.OPEN, failures, 0)
        else:
            self._state[key] = (self.CLOSED, failures, 0)


def majority_vote(results, minimum=2):
    """The first result whose verdict ``(ok, output, exit_code)`` appears
    at least *minimum* times, or None when no verdict has a majority."""
    tally = {}
    for result in results:
        key = (result.ok, result.output, result.exit_code)
        tally[key] = tally.get(key, 0) + 1
        if tally[key] >= minimum:
            return result
    return None


@dataclass
class ResilienceConfig:
    """The robustness knobs, in one place (CLI flags map onto these)."""

    max_retries: int = 4
    votes: int = 1  # executions per verdict; 1 == trust single runs
    max_vote_rounds: int = 2  # extra vote batches when no majority
    retry_budget: int | None = None  # run-wide cap on recovery retries
    failure_threshold: int = 5
    cooldown_calls: int = 8
    jitter_seed: int = 0x7E57

    def build_policy(self):
        budget = (
            ExecutionBudget(self.retry_budget)
            if self.retry_budget is not None
            else None
        )
        return RetryPolicy(
            max_retries=self.max_retries,
            jitter_seed=self.jitter_seed,
            budget=budget,
        )

    def build_breaker(self):
        return CircuitBreaker(
            failure_threshold=self.failure_threshold,
            cooldown_calls=self.cooldown_calls,
        )


class ResilientMachine(MachineLayer):
    """Retry + breaker + voting as one machine layer.

    Wraps any four-verb machine (a :class:`RemoteMachine`, or a
    :class:`~repro.machines.faults.FaultyMachine` standing in for a
    flaky one).  Its ``around`` hook retries each verb under the policy
    behind a per-verb circuit breaker; ``execute`` additionally runs
    the program ``votes`` times and returns the majority verdict,
    because a corrupted-but-clean-looking run raises no exception for
    retry logic to see.
    """

    def __init__(self, machine, config=None, policy=None, breaker=None):
        super().__init__(machine)
        self.config = config or ResilienceConfig()
        self.policy = policy or self.config.build_policy()
        self.breaker = breaker or self.config.build_breaker()

    def clone_connection(self, index=0):
        """A parallel connection with its own retry policy and breaker.

        Retry state must be per-connection (a breaker tripped by one
        worker's probes should not blind another's), so the clone gets a
        fresh policy/breaker from the same config; aggregate the
        :class:`RetryStats` with :meth:`RetryStats.add`.
        """
        return ResilientMachine(self.inner.clone_connection(index), config=self.config)

    def around(self, verb, call, *args):
        if not self.breaker.allow(verb):
            self.policy.stats.breaker_rejections += 1
            raise PermanentTargetError(
                f"circuit open for remote {verb} (persistent target failures)"
            )
        try:
            result = self.policy.call(call, *args)
        except TransientTargetError:
            self.breaker.record_failure(verb)
            raise
        self.breaker.record_success(verb)
        return result

    def execute(self, executable):
        votes = self.config.votes
        if votes <= 1:
            return super().execute(executable)
        stats = self.policy.stats
        minimum = votes // 2 + 1
        results = []
        for _round in range(1 + self.config.max_vote_rounds):
            for _ in range(votes if not results else 1):
                results.append(super().execute(executable))
                stats.vote_runs += 1
                winner = majority_vote(results, minimum)
                if winner is not None:
                    return winner
            stats.vote_conflicts += 1
        raise TransientTargetError(
            f"no majority among {len(results)} repeated executions"
        )


def make_resilient(machine, config=None):
    """Wrap *machine* unless it is already resilient."""
    if isinstance(machine, ResilientMachine):
        return machine
    return ResilientMachine(machine, config=config)
