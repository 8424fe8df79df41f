#!/usr/bin/env python3
"""Automatic synthesis of graybox wrappers (Section 6, "future work").

The paper closes by announcing work on *automatic synthesis of graybox
dependability*.  For finite everywhere-specifications this repository
solves the stabilization case constructively: given only a specification
``A``, compute its legitimate states and emit a wrapper whose single
recovery action jumps every illegitimate state toward the legitimate
region.  Under UNITY's weak fairness, ``A box W`` is then stabilizing to
``A`` — and by the Theorem-1 argument, so is ``C box W`` for every
everywhere-implementation ``C``, sight unseen.

This script synthesizes a wrapper for a small file-transfer-protocol-style
specification with a corrupted "limbo" region, shows the recovery plan,
and verifies the composition both for the spec itself and for a concrete
implementation the synthesizer never looked at.

Run::

    python examples/wrapper_synthesis.py
"""

from repro.core import (
    TransitionSystem,
    box,
    everywhere_implements,
    is_stabilizing_to_fair,
    synthesize_stabilizing_wrapper,
)


def protocol_spec() -> TransitionSystem:
    """idle -> sending -> waiting_ack -> idle, plus a corrupted limbo
    region (limbo1 <-> limbo2) that the specification itself never
    escapes."""
    return TransitionSystem(
        "FTP-spec",
        {
            "idle": {"sending"},
            "sending": {"waiting_ack"},
            "waiting_ack": {"idle", "sending"},  # ack or retransmit
            "limbo1": {"limbo2"},
            "limbo2": {"limbo1"},
        },
        initial={"idle"},
    )


def concrete_implementation() -> TransitionSystem:
    """An implementation that resolves the spec's nondeterminism (always
    acks, never retransmits) -- it everywhere-implements the spec but the
    synthesizer never sees it."""
    return TransitionSystem(
        "FTP-impl",
        {
            "idle": {"sending"},
            "sending": {"waiting_ack"},
            "waiting_ack": {"idle"},
            "limbo1": {"limbo2"},
            "limbo2": {"limbo1"},
        },
        initial={"idle"},
    )


def main() -> None:
    spec = protocol_spec()
    result = synthesize_stabilizing_wrapper(spec)

    print("Specification:", spec)
    print(f"Legitimate states : {sorted(result.legitimate)}")
    print("Synthesized recovery actions (graybox -- from the spec alone):")
    for src, dst in sorted(result.recovery_edges):
        print(f"  {src} -> {dst}")

    composed = box(spec, result.wrapper)
    verdict = is_stabilizing_to_fair(composed, spec, [result.recovery_edges])
    print(f"\nA box W fair-stabilizing to A : {bool(verdict)}")

    impl = concrete_implementation()
    assert everywhere_implements(impl, spec)
    transferred = is_stabilizing_to_fair(
        box(impl, result.wrapper), spec, [result.recovery_edges]
    )
    print(f"C box W fair-stabilizing to A : {bool(transferred)}  "
          "(C never shown to the synthesizer)")

    assert verdict and transferred


if __name__ == "__main__":
    main()
