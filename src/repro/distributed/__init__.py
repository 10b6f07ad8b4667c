"""repro.distributed: multi-device execution over the shard protocol.

:func:`color_distributed` runs the partitioned core
(:mod:`repro.parallel.partitioned`) with one shard per simulated Kepler
device behind a pluggable :class:`Transport` (:class:`LocalTransport`,
:class:`PoolTransport`) and a halo exchange priced by a
:class:`Topology` (``pcie``/``nvlink``/``ring``).  Colors are
byte-identical to :func:`~repro.parallel.sharded.color_sharded` at equal
shard counts: the distributed layer changes the cost model, never the
decisions.  See docs/DISTRIBUTED.md.
"""

from .api import DistributedColoringError, color_distributed
from .halo import HaloPlan, HaloState, build_halo_plan
from .topology import (
    TOPOLOGIES,
    Link,
    Message,
    Topology,
    resolve_topology,
    unknown_topology_error,
)
from .transport import (
    TRANSPORTS,
    LocalTransport,
    PoolTransport,
    Transport,
    resolve_transport,
)

__all__ = [
    "DistributedColoringError",
    "color_distributed",
    "HaloPlan",
    "HaloState",
    "build_halo_plan",
    "Link",
    "Message",
    "Topology",
    "TOPOLOGIES",
    "resolve_topology",
    "unknown_topology_error",
    "Transport",
    "LocalTransport",
    "PoolTransport",
    "TRANSPORTS",
    "resolve_transport",
]
