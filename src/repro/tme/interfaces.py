"""The Lspec variable interface -- and its graybox enforcement.

Every TME implementation in this package (Ricart-Agrawala, Lamport, and the
negative-control token ring) exposes the *specification variables* of Lspec
(Section 3.2) under fixed names:

===========  ==============================================================
``phase``    ``"t"`` / ``"h"`` / ``"e"`` -- thinking, hungry, eating
             (the paper's structural variable ``state.j``)
``lc``       the logical clock counter (``ts:j = Timestamp(lc, j)``)
``req``      ``REQ_j`` -- the request lower bound (a Timestamp)
``req_of``   ``j.REQ_k`` for each peer ``k`` (a tuple-map pid -> Timestamp)
``received`` ``received(j.REQ_k)`` for each peer (tuple-map pid -> bool)
===========  ==============================================================

Implementations may keep any *additional* private variables (RA's deferred
set is derived; Lamport keeps ``queue`` and ``grant``).  The graybox wrapper
is only allowed to touch the table above: :class:`GrayboxView` enforces this
at runtime, so "the wrapper uses only the specification" (Section 4) is a
checked property of the code, not a comment.

Maps are stored as sorted tuples of pairs so that process snapshots stay
hashable (see :meth:`repro.runtime.process.ProcessRuntime.snapshot`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.clocks.timestamps import Timestamp
from repro.dsl.guards import LocalView

LSPEC_VARIABLES = ("phase", "lc", "req", "req_of", "received")

THINKING, HUNGRY, EATING = "t", "h", "e"
PHASES = (THINKING, HUNGRY, EATING)

REQUEST, REPLY, RELEASE = "request", "reply", "release"


def tmap(mapping: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Freeze a dict into a sorted, hashable tuple-map."""
    return tuple(sorted(mapping.items()))


def tmap_get(frozen: tuple[tuple[str, Any], ...], key: str) -> Any:
    """Look up one key in a tuple-map (KeyError if absent)."""
    for k, v in frozen:
        if k == key:
            return v
    raise KeyError(key)


def tmap_set(
    frozen: tuple[tuple[str, Any], ...], key: str, value: Any
) -> tuple[tuple[str, Any], ...]:
    """A copy of the tuple-map with one existing key rebound."""
    found = False
    pairs = []
    for pair in frozen:
        k, _v = pair
        if k == key:
            found = True
            pair = (k, value)
        pairs.append(pair)
    if not found:
        raise KeyError(key)
    pairs.sort()
    return tuple(pairs)


def tmap_as_dict(frozen: tuple[tuple[str, Any], ...]) -> dict[str, Any]:
    """Thaw a tuple-map back into a plain dict."""
    return dict(frozen)


def initial_lspec_vars(pid: str, all_pids: tuple[str, ...]) -> dict[str, Any]:
    """The paper's Init: ``t.j``, ``ts:j = 0``, ``REQ_j = 0``, all copies 0.

    The zero timestamp of a copy carries the *owner's* pid so the ``lt``
    tie-break behaves exactly as the paper's totally ordered domain.
    """
    peers = tuple(k for k in all_pids if k != pid)
    return {
        "phase": THINKING,
        "lc": 0,
        "req": Timestamp(0, pid),
        "req_of": tmap({k: Timestamp(0, k) for k in peers}),
        "received": tmap({k: False for k in peers}),
    }


class GrayboxAccessError(AttributeError):
    """The wrapper touched a variable outside the Lspec interface."""


class GrayboxView:
    """A view restricted to the Lspec interface plus wrapper-owned state.

    Wrapper-owned variables are namespaced with a ``w_`` prefix; reading
    anything else (an implementation's private ``queue``, ``grant``,
    ``think_timer``, ...) raises :class:`GrayboxAccessError`.  ``accessed``
    records every read for the graybox-compliance tests.
    """

    _ALLOWED_META = ("_pid", "_peers", "_msg", "_sender")

    def __init__(self, view: LocalView):
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "accessed", set())

    def _check(self, name: str) -> None:
        allowed = (
            name in LSPEC_VARIABLES
            or name in self._ALLOWED_META
            or name.startswith("w_")
        )
        if not allowed:
            raise GrayboxAccessError(
                f"graybox wrapper may not read implementation variable "
                f"{name!r}; the Lspec interface is {LSPEC_VARIABLES}"
            )
        self.accessed.add(name)

    def __getattr__(self, name: str) -> Any:
        self._check(name)
        return getattr(self._view, name)

    def __getitem__(self, name: str) -> Any:
        self._check(name)
        return self._view[name]

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("views are read-only")


def lspec_snapshot_vars(variables: Mapping[str, Any]) -> dict[str, Any]:
    """Project a full variable valuation onto the Lspec interface."""
    return {k: variables[k] for k in LSPEC_VARIABLES if k in variables}


# ---------------------------------------------------------------------------
# Interface adapters (abstraction functions)
# ---------------------------------------------------------------------------
#
# An implementation *realizes* the Lspec variables.  RA_ME keeps them as
# explicit state; Lamport_ME instead DEFINES ``j.REQ_k`` in terms of its
# private ``grant`` and ``request_queue`` (Section 5.2: "We do not
# explicitly specify how j.REQ_k should be modified...").  An *adapter* is
# that published abstraction function: it maps the implementation's raw
# variables to the Lspec view.  Wrappers and monitors consume only adapter
# output -- they remain graybox; the adapter is part of the implementation's
# conformance claim (its proof of [C => Lspec] is stated through it).


class LspecView(dict):
    """Adapter output: exactly the Lspec variables, as plain values.

    ``req_of`` and ``received`` are ordinary dicts here (pid -> value).
    """

    REQUIRED = ("phase", "lc", "req", "req_of", "received")
    _REQUIRED_KEYS = frozenset(REQUIRED)

    def __init__(self, **kwargs: Any):
        if kwargs.keys() != self._REQUIRED_KEYS:
            missing = [k for k in self.REQUIRED if k not in kwargs]
            if missing:
                raise ValueError(f"LspecView missing {missing}")
            stray = [k for k in kwargs if k not in self.REQUIRED]
            raise ValueError(
                f"LspecView may only carry the Lspec variables; got {stray}"
            )
        super().__init__(kwargs)

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


Adapter = Any  # Callable[[Mapping[str, Any], str, tuple[str, ...]], LspecView]

_ADAPTERS: dict[str, Adapter] = {}


def register_adapter(program_name: str, adapter: Adapter) -> None:
    """Publish a program's Lspec interface realization by name."""
    _ADAPTERS[program_name] = adapter


def adapter_for(program_name: str) -> Adapter:
    """The adapter registered for a program; defaults to the explicit-
    variables adapter."""
    return _ADAPTERS.get(program_name, explicit_adapter)


def explicit_adapter(
    variables: Mapping[str, Any], pid: str, peers: tuple[str, ...]
) -> LspecView:
    """Adapter for implementations that store Lspec variables directly
    (RA_ME, the token ring).  Tolerates corrupted values by substituting
    the Init defaults -- an arbitrary state must still *have* an abstract
    view."""
    req = variables.get("req")
    if not isinstance(req, Timestamp):
        req = Timestamp(0, pid)
    raw_req_of = dict(variables.get("req_of") or ())
    raw_received = dict(variables.get("received") or ())
    req_of = {}
    received = {}
    for k in peers:
        copy = raw_req_of.get(k)
        req_of[k] = copy if isinstance(copy, Timestamp) else Timestamp(0, k)
        received[k] = bool(raw_received.get(k, False))
    phase = variables.get("phase")
    if phase not in PHASES:
        phase = THINKING
    lc = variables.get("lc")
    if not isinstance(lc, int) or lc < 0:
        lc = 0
    return LspecView(
        phase=phase, lc=lc, req=req, req_of=req_of, received=received
    )
