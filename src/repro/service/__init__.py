"""repro.service: the live lock service.

The deployed-implementation claim of the paper, made runnable: the same
wrapped ProcessPrograms the simulator verifies, serving a real lock API
over TCP on localhost, under load generation and chaos, with online
ME1-ME3 monitoring and a persisted trace that re-validates offline.

Modules:

* :mod:`repro.service.wire`      -- frames, the frame parser, the value codec
* :mod:`repro.service.transport` -- SocketTransport / ClusterNetwork
* :mod:`repro.service.node`      -- the per-node runtime (two loop callbacks)
* :mod:`repro.service.lockapi`   -- acquire/release frontend + client
* :mod:`repro.service.monitor`   -- LiveMonitor + trace persistence
* :mod:`repro.service.chaos`     -- link cut/heal at runtime
* :mod:`repro.service.cluster`   -- LocalCluster assembly
* :mod:`repro.service.loadgen`   -- the load generator
"""

from repro.service.chaos import ChaosConfig, ChaosMonkey
from repro.service.cluster import ClusterConfig, LocalCluster
from repro.service.loadgen import LoadgenConfig, LoadgenResult, run_loadgen
from repro.service.lockapi import LockClient, LockError, LockFrontend
from repro.service.monitor import LiveMonitor, revalidate_trace
from repro.service.node import ServiceNode
from repro.service.transport import ClusterNetwork, SocketTransport

__all__ = [
    "ChaosConfig",
    "ChaosMonkey",
    "ClusterConfig",
    "ClusterNetwork",
    "LiveMonitor",
    "LoadgenConfig",
    "LoadgenResult",
    "LocalCluster",
    "LockClient",
    "LockError",
    "LockFrontend",
    "ServiceNode",
    "SocketTransport",
    "revalidate_trace",
    "run_loadgen",
]
