"""Schedulers: who moves next in the asynchronous interleaving.

Execution in the TME model is asynchronous -- every process at its own
speed, arbitrary finite message delays.  The scheduler realizes that
nondeterminism.  Candidate steps are:

* ``DeliverStep(src, dst)`` -- hand the head message of a non-empty channel
  to its receiver;
* ``InternalStep(pid, action)`` -- run an enabled internal guarded action.

Three schedulers are provided:

* :class:`RandomScheduler` -- uniform choice (weakly fair with probability
  1; the workhorse for experiments);
* :class:`RoundRobinScheduler` -- deterministic least-recently-served
  choice (weakly fair by construction; used where determinism matters);
* :class:`AdversarialScheduler` -- a caller-supplied policy, for forcing
  worst-case interleavings in tests.
"""

from __future__ import annotations

import copy
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter


@dataclass(frozen=True)
class DeliverStep:
    """Candidate step: deliver the head message of channel src->dst."""

    src: str
    dst: str
    #: The stable identity schedulers sort by and records store.
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", ("deliver", self.src, self.dst))


@dataclass(frozen=True)
class InternalStep:
    """Candidate step: run the named internal action at ``pid``."""

    pid: str
    action: str
    #: The stable identity schedulers sort by and records store.
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", ("internal", self.pid, self.action))


Step = DeliverStep | InternalStep

_step_key = attrgetter("key")


class Scheduler:
    """Interface: pick one of the candidate steps."""

    def choose(self, candidates: Sequence[Step], step_index: int) -> Step:
        raise NotImplementedError

    def fork(self) -> "Scheduler":
        """An independent copy (simulator forks must not share mutable
        scheduler state).  Subclasses with cheap state override this."""
        return copy.deepcopy(self)


class RandomScheduler(Scheduler):
    """Uniformly random choice; weights may bias step classes.

    ``deliver_bias`` > 1 favours message delivery over internal actions
    (shorter message delays), < 1 lengthens delays.

    ``rng`` is required and may be a :class:`random.Random` or an int seed
    -- never an unseeded RNG.  Every run in this repo must be reproducible
    from its seeds alone, so constructing a scheduler on wall-clock
    entropy is a bug by policy.
    """

    def __init__(self, rng: random.Random | int, deliver_bias: float = 1.0):
        if deliver_bias <= 0:
            raise ValueError("deliver_bias must be positive")
        if isinstance(rng, bool) or not isinstance(rng, (random.Random, int)):
            raise TypeError(
                "rng must be a random.Random or an int seed; an unseeded "
                "scheduler would make runs irreproducible"
            )
        self._rng = random.Random(rng) if isinstance(rng, int) else rng
        self._deliver_bias = deliver_bias

    def choose(self, candidates: Sequence[Step], step_index: int) -> Step:
        if not candidates:
            raise ValueError("no candidate steps")
        ordered = sorted(candidates, key=_step_key)
        weights = [
            self._deliver_bias if isinstance(s, DeliverStep) else 1.0
            for s in ordered
        ]
        return self._rng.choices(ordered, weights=weights, k=1)[0]

    def fork(self) -> "RandomScheduler":
        # The seed is irrelevant (setstate overwrites it), but an explicit
        # one keeps the repo free of unseeded random.Random() calls.
        rng = random.Random(0)
        rng.setstate(self._rng.getstate())
        return RandomScheduler(rng, self._deliver_bias)


class RoundRobinScheduler(Scheduler):
    """Least-recently-served among enabled candidates (deterministic,
    weakly fair: a continuously enabled step is eventually chosen)."""

    def __init__(self) -> None:
        self._last_served: dict[tuple, int] = {}

    def choose(self, candidates: Sequence[Step], step_index: int) -> Step:
        if not candidates:
            raise ValueError("no candidate steps")
        chosen = min(
            sorted(candidates, key=_step_key),
            key=lambda s: self._last_served.get(s.key, -1),
        )
        self._last_served[chosen.key] = step_index
        return chosen

    def fork(self) -> "RoundRobinScheduler":
        clone = RoundRobinScheduler()
        clone._last_served = dict(self._last_served)
        return clone


class AdversarialScheduler(Scheduler):
    """Delegates to a policy ``(candidates, step_index) -> Step``.

    The policy may starve steps (the paper's specifications only assume the
    built-in weak fairness of UNITY; adversarial schedules are used in tests
    to show which guarantees do NOT survive unfair scheduling).
    """

    def __init__(self, policy: Callable[[Sequence[Step], int], Step]):
        self._policy = policy

    def choose(self, candidates: Sequence[Step], step_index: int) -> Step:
        chosen = self._policy(candidates, step_index)
        if chosen not in candidates:
            raise ValueError("adversarial policy chose a non-candidate step")
        return chosen

    def fork(self) -> "AdversarialScheduler":
        return AdversarialScheduler(self._policy)
