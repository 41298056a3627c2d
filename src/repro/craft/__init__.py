"""C-Raft: the paper's second contribution (Section V).

Sites form clusters; each cluster runs Fast Raft on a *local* log, and the
cluster leaders run a second Fast Raft instance among themselves on the
*global* log. Before a cluster leader inserts anything into its global
log, it commits a *global state entry* describing the insert through
intra-cluster consensus -- so if the leader dies, its successor
reconstructs the cluster's inter-cluster state from the local log, joins
the global configuration, and inter-cluster consensus continues. Locally
committed client entries are shipped cluster-to-cluster in batches.

Modules:

- :mod:`repro.craft.local` -- the intra-cluster engine (Fast Raft on the
  local log; members learn global commits from its applied global state
  entries),
- :mod:`repro.craft.global_engine` -- the inter-cluster engine (Fast Raft
  with every log insert gated through local consensus),
- :mod:`repro.craft.batching` -- batch assembly policy,
- :mod:`repro.craft.server` -- the site actor tying both levels together,
- :mod:`repro.craft.deployment` -- multi-cluster deployment builder.
"""

from repro.craft.batching import Batcher
from repro.craft.deployment import CRaftDeployment, build_craft_deployment
from repro.craft.server import CRaftServer

__all__ = ["Batcher", "CRaftDeployment", "CRaftServer",
           "build_craft_deployment"]
