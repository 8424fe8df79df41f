"""LocalCluster: the whole live service, assembled.

A :class:`LocalCluster` stands up ``n`` wrapped TME processes as real
socket endpoints on localhost -- the same
:class:`~repro.dsl.program.ProcessProgram` composition the simulator runs
(implementation + W' wrapper, built by :func:`~repro.tme.scenarios.
tme_programs`), each driven by a :class:`~repro.service.node.ServiceNode`,
fronted by a :class:`~repro.service.lockapi.LockFrontend`, and joined by a
:class:`~repro.service.transport.ClusterNetwork`.

Running in a single process is a deliberate choice, not a shortcut: it
gives the event trace a total order, which is what lets the online
:class:`~repro.service.monitor.LiveMonitor` evaluate ME1-ME3 exactly as
the simulator's offline checker would.  The sockets, frames, reconnects,
and kernel buffering are all real; only the observer is centralized.

The PR-5 recovery subsystem runs unchanged: :class:`RecoveryManager` was
written against the simulator but only ever touches ``.processes`` and
``.network`` -- the :class:`_ClusterFacade` provides exactly those two
attributes over the live cluster, and a periodic asyncio task plays the
role of the per-step hook (``step_index`` becomes the recovery tick).
Whatever state the manager mutates (forged exclusions, resets) is diffed
against the monitored variables and emitted into the event trace, so the
monitor's verdict covers recovery interventions too.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path

from repro.durable import stamp_artifact
from repro.recovery.manager import RecoveryConfig, RecoveryManager
from repro.runtime.process import ProcessRuntime
from repro.service.chaos import ChaosConfig, ChaosMonkey
from repro.service.lockapi import LockFrontend
from repro.service.monitor import LiveMonitor, TraceWriter, monitored_vars
from repro.service.node import DEFAULT_WRAPPER_TICK_S, ServiceNode
from repro.service.transport import ClusterNetwork, SocketTransport
from repro.tme.client import ClientConfig
from repro.tme.scenarios import pids_for, tme_programs
from repro.tme.spec import TmeSpecReport
from repro.tme.wrapper import WrapperConfig

#: How often the recovery manager's hook fires, in seconds of loop time.
DEFAULT_RECOVERY_TICK_S = 0.05

#: Schema of the service-verdict JSON artifact.
VERDICT_SCHEMA_VERSION = 1

#: The node-level client workload: timers are armed by the lock API, so
#: delays just need to be nonzero (a zero think_delay would make a node
#: re-request the CS forever with no client demand).
_SERVICE_CLIENT = ClientConfig(think_delay=1, eat_delay=1, max_sessions=None)


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a live cluster."""

    algorithm: str = "ra"
    n: int = 3
    theta: int = 8
    host: str = "127.0.0.1"
    #: 0 = ephemeral ports (tests); otherwise node i listens on base+i.
    base_port: int = 0
    wrapper_tick_s: float = DEFAULT_WRAPPER_TICK_S
    recovery: bool = True
    recovery_tick_s: float = DEFAULT_RECOVERY_TICK_S
    trace_path: str | None = None


class _ClusterFacade:
    """What :class:`RecoveryManager` sees: ``.processes`` and ``.network``."""

    def __init__(
        self,
        processes: dict[str, ProcessRuntime],
        network: ClusterNetwork,
    ):
        self.processes = processes
        self.network = network


class LocalCluster:
    """The assembled live service (see module docstring)."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        chaos: ChaosConfig | None = None,
        recovery_config: RecoveryConfig | None = None,
    ):
        self.config = config or ClusterConfig()
        cfg = self.config
        self.pids = pids_for(cfg.n)
        programs = tme_programs(
            cfg.algorithm,
            cfg.n,
            client=_SERVICE_CLIENT,
            wrapper=WrapperConfig(theta=cfg.theta),
        )
        self.runtimes: dict[str, ProcessRuntime] = {
            pid: ProcessRuntime(pid, programs[pid], self.pids)
            for pid in self.pids
        }
        self.nodes: dict[str, ServiceNode] = {}
        self.frontends: dict[str, LockFrontend] = {}
        transports: dict[str, SocketTransport] = {}
        for pid in self.pids:
            transport = SocketTransport(
                pid,
                self.pids,
                deliver=lambda message, p=pid: self.nodes[p].deliver(message),
            )
            node = ServiceNode(
                self.runtimes[pid],
                transport,
                emit=lambda action, p=pid: self._on_step(p, action),
                wrapper_tick_s=cfg.wrapper_tick_s,
            )
            frontend = LockFrontend(node)
            node.on_settle = frontend.poll
            transport.client_handler = frontend
            transports[pid] = transport
            self.nodes[pid] = node
            self.frontends[pid] = frontend
        self.network = ClusterNetwork(transports)
        for pid in self.pids:
            self.network.add_flush_hook(self.nodes[pid].drain_inbox)
        self.monitor = LiveMonitor(
            {pid: rt.variables for pid, rt in self.runtimes.items()}
        )
        self._writer: TraceWriter | None = None
        self.addresses: dict[str, tuple[str, int]] = {}
        self._facade = _ClusterFacade(self.runtimes, self.network)
        self.recovery: RecoveryManager | None = (
            RecoveryManager(recovery_config) if cfg.recovery else None
        )
        self._recovery_tick = 0
        self._recovery_task: asyncio.Task | None = None
        self.chaos: ChaosMonkey | None = (
            ChaosMonkey(self.network, chaos, self._mark)
            if chaos is not None and chaos.enabled
            else None
        )
        self._started = False

    # -- event plumbing -------------------------------------------------------

    def _on_step(self, pid: str, action: str) -> None:
        """A node executed one step: feed monitor and trace, in order."""
        variables = self.runtimes[pid].variables
        seq = self.monitor.events_seen  # seq of the event about to land
        self.monitor.on_event(pid, variables)
        if self._writer is not None:
            self._writer.event(seq, pid, action, variables)

    def _mark(self, kind: str, detail: str) -> None:
        """A state-free intervention (link cut/heal): trace only."""
        if self._writer is not None:
            self._writer.mark(self.monitor.events_seen, kind, detail)
        for node in self.nodes.values():
            node.kick()

    # -- recovery -------------------------------------------------------------

    def _recovery_step(self) -> None:
        """One hook firing of the recovery manager over the facade."""
        assert self.recovery is not None
        self._recovery_tick += 1
        before = {
            pid: monitored_vars(rt.variables)
            for pid, rt in self.runtimes.items()
        }
        actions = self.recovery.before_step(self._facade, self._recovery_tick)
        if not actions:
            return
        for action in actions:
            if self._writer is not None:
                self._writer.mark(
                    self.monitor.events_seen, "recover", action
                )
        # Any state the manager rewrote must reach the monitor as ordered
        # events, or the online and offline verdicts would diverge.
        for pid, rt in self.runtimes.items():
            if monitored_vars(rt.variables) != before[pid]:
                self._on_step(pid, "recover")
        for node in self.nodes.values():
            node.kick()

    async def _recovery_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.recovery_tick_s)
            self._recovery_step()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> dict[str, tuple[str, int]]:
        """Bind, interconnect, and start everything; returns the node
        addresses clients can connect to."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        cfg = self.config
        if cfg.trace_path is not None:
            # one-time file open before any request is served; the loop is
            # not yet carrying latency-sensitive traffic at this point
            self._writer = TraceWriter.open(  # repro: lint-ok[AIO-BLOCK]
                Path(cfg.trace_path)
            )
            self._writer.header(
                {pid: rt.variables for pid, rt in self.runtimes.items()}
            )
        for i, pid in enumerate(self.pids):
            port = 0 if cfg.base_port == 0 else cfg.base_port + i
            self.addresses[pid] = await self.nodes[pid].transport.start(
                cfg.host, port
            )
        for pid in self.pids:
            self.nodes[pid].transport.set_peers(self.addresses)
        for pid in self.pids:
            await self.nodes[pid].transport.connect_peers()
        for pid in self.pids:
            self.nodes[pid].start()
        if self.recovery is not None:
            self._recovery_task = asyncio.get_running_loop().create_task(
                self._recovery_loop(), name="recovery"
            )
        if self.chaos is not None:
            self.chaos.start()
        return dict(self.addresses)

    async def stop(self) -> TmeSpecReport:
        """Stop everything and return the monitor's final verdict."""
        if self.chaos is not None:
            await self.chaos.stop()
        if self._recovery_task is not None:
            self._recovery_task.cancel()
            try:
                await self._recovery_task
            except asyncio.CancelledError:
                pass
            self._recovery_task = None
        for node in self.nodes.values():
            node.stop()
        for node in self.nodes.values():
            await node.transport.stop()
        report = self.monitor.report()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        return report

    # -- observability --------------------------------------------------------

    def client_ports(self) -> list[int]:
        """Ports (sorted by pid) a lock client may connect to."""
        return [self.addresses[pid][1] for pid in self.pids]

    def frontend_stats(self) -> dict[str, dict[str, int]]:
        """Per-node lock-frontend counters."""
        return {
            pid: frontend.stats.as_dict()
            for pid, frontend in sorted(self.frontends.items())
        }

    def total_grants(self) -> int:
        """Lock grants served cluster-wide."""
        return sum(f.stats.grants for f in self.frontends.values())

    def verdict_artifact(self, report: TmeSpecReport) -> dict:
        """The stamped service-verdict artifact the CI smoke asserts on."""
        payload = {
            "kind": "service-verdict",
            "algorithm": self.config.algorithm,
            "n": self.config.n,
            "theta": self.config.theta,
            "events": self.monitor.events_seen,
            "me1_violations": len(report.me1),
            "me3_violations": len(report.me3),
            "cs_entries": sum(r.entries for r in report.me2),
            "grants": self.total_grants(),
            "sent": self.network.total_sent(),
            "dropped": self.network.total_dropped(),
            "frontends": self.frontend_stats(),
        }
        return stamp_artifact(payload, VERDICT_SCHEMA_VERSION)
