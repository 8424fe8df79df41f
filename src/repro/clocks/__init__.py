"""Logical clocks and timestamps (Environment Spec: Timestamp Spec)."""

from repro.clocks.happened_before import (
    HbViolation,
    RecordedEvent,
    check_timestamp_spec,
)
from repro.clocks.timestamps import (
    Timestamp,
    bottom,
    earliest,
    is_total_order_consistent,
    zero,
)

__all__ = [
    "HbViolation",
    "RecordedEvent",
    "Timestamp",
    "bottom",
    "check_timestamp_spec",
    "earliest",
    "is_total_order_consistent",
    "zero",
]
