"""The paper's fault model (Section 3.1), as composable injectors."""

from repro.faults.injector import (
    BudgetedFaults,
    Composite,
    FaultInjector,
    NoFaults,
    Scripted,
    Windowed,
)
from repro.faults.message_faults import (
    ChannelFlush,
    MessageCorruption,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
)
from repro.faults.state_faults import (
    CrashRecover,
    ImproperInitialization,
    StateCorruption,
)

__all__ = [
    "BudgetedFaults",
    "ChannelFlush",
    "Composite",
    "CrashRecover",
    "FaultInjector",
    "ImproperInitialization",
    "MessageCorruption",
    "MessageDuplication",
    "MessageLoss",
    "MessageReorder",
    "NoFaults",
    "Scripted",
    "StateCorruption",
    "Windowed",
]
