#ifndef DPR_HARNESS_CLUSTER_H_
#define DPR_HARNESS_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/migration.h"
#include "dfaster/client.h"
#include "dfaster/worker.h"
#include "dpr/cluster_manager.h"
#include "dpr/finder.h"
#include "dpr/finder_service.h"
#include "dredis/client.h"
#include "dredis/dredis.h"
#include "metadata/metadata_store.h"
#include "net/inmemory_net.h"
#include "net/tcp_net.h"
#include "storage/device.h"

namespace dpr {

enum class TransportKind { kInMemory, kTcp };

struct ClusterOptions {
  uint32_t num_workers = 2;
  RecoverabilityMode mode = RecoverabilityMode::kDpr;
  StorageBackend backend = StorageBackend::kNull;
  /// RPO ceiling of each shard's checkpoint tick loop (src/ckpt/): hot
  /// shards checkpoint more often (down to a quarter of it) and idle shards
  /// skip the I/O; each store picks a full or delta index image.
  uint64_t checkpoint_interval_us = 100000;  // paper default: 100 ms
  FinderKind finder = FinderKind::kApprox;   // paper's eval default (§7.1)
  uint64_t finder_interval_us = 10000;
  TransportKind transport = TransportKind::kInMemory;
  /// TCP transport only: event-loop / executor sizing for every server the
  /// cluster brings up (workers and the remote finder).
  TcpServerOptions tcp;
  /// Run the finder behind a DprFinderServer and have workers + cluster
  /// manager reach it through a shared batching RemoteDprFinder — the
  /// paper's deployment shape, where the tracking plane is its own service.
  /// The coordinator still runs on the local finder (it owns the metadata).
  bool remote_finder = false;
  /// Directory for file-backed devices; empty = memory-backed devices.
  std::string storage_dir;
};

/// Brings up a whole D-FASTER deployment in-process: metadata store, DPR
/// finder + coordinator, cluster manager, N workers with RPC endpoints.
/// The single-box equivalent of the paper's 8-VM Azure cluster.
class DFasterCluster {
 public:
  explicit DFasterCluster(ClusterOptions options);
  ~DFasterCluster();

  DFasterCluster(const DFasterCluster&) = delete;
  DFasterCluster& operator=(const DFasterCluster&) = delete;

  Status Start();
  void Stop();

  /// Client with remote connections to every worker (dedicated-client mode).
  std::unique_ptr<DFasterClient> NewClient(uint32_t batch_size,
                                           uint32_t window);

  /// Client co-located with `local_worker`: local keys run through shared
  /// memory, remote keys over the transport (paper §7.3).
  std::unique_ptr<DFasterClient> NewColocatedClient(WorkerId local_worker,
                                                    uint32_t batch_size,
                                                    uint32_t window);

  /// Injects a failure of `failed` workers and runs the recovery protocol.
  Status InjectFailure(const std::vector<WorkerId>& failed);

  /// Live migration (DESIGN.md §4i): seal -> dual-ownership forwarding ->
  /// drain -> DPR commit barrier -> world-line fence -> flip. The source
  /// stays authoritative until the flip, so writes keep flowing for the
  /// whole move; clients chase the flip via kNotOwner re-routes.
  Status MigratePartition(uint32_t partition, WorkerId to);

  /// Current owner of a partition per the durable ownership table.
  WorkerId OwnerOf(uint32_t partition) const;

  /// Elasticity (§5.3): adds a new, empty worker to the running cluster — a
  /// new DPR-table row plus a durable kJoining membership row. Move
  /// partitions to it with MigratePartition, then ActivateWorker. Existing
  /// clients created by NewClient reach it automatically (they resolve the
  /// endpoint lazily on first route).
  Status AddWorker(WorkerId* new_id);

  /// kJoining -> kActive once the join's migrations are done.
  Status ActivateWorker(WorkerId id);

  /// Full decommission: kDraining, live-migrate every owned partition to
  /// the least-loaded active member, stop the worker, drop the DPR row,
  /// tombstone.
  Status DecommissionWorker(WorkerId id);

  /// Durable membership rows.
  std::map<WorkerId, MemberState> MemberStates() const;

  DFasterWorker* worker(uint32_t i) { return workers_[i].get(); }
  uint32_t num_workers() const { return options_.num_workers; }
  ClusterManager* cluster_manager() { return cluster_manager_.get(); }
  /// The authoritative (local) finder; with remote_finder enabled this is
  /// the instance behind the RPC server.
  DprFinder* finder() { return finder_.get(); }
  MetadataStore* metadata() { return metadata_.get(); }
  ClusterMembership* membership() { return membership_.get(); }

 private:
  /// Builds worker `id` (devices, config, RPC server), starts it, publishes
  /// its address and registers it with the cluster manager.
  Status StartWorker(WorkerId id, bool start_empty);
  /// Stops an empty worker and drops its DPR-table row. Fails if the worker
  /// still owns partitions.
  Status RemoveDrainedWorker(WorkerId id);
  /// The finder the workers report through: the batching RPC client when
  /// the tracking plane is remote, the local finder otherwise.
  DprFinder* plane() const;
  /// Address of worker `id`, or empty when unknown (locked: AddWorker grows
  /// the table while client resolvers read it).
  std::string AddressOf(WorkerId id) const;
  std::unique_ptr<RpcConnection> ConnectTo(const std::string& address);

  ClusterOptions options_;
  std::unique_ptr<InMemoryNetwork> net_;
  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> finder_;
  std::unique_ptr<DprFinderServer> finder_server_;
  std::unique_ptr<RemoteDprFinder> remote_finder_;
  std::unique_ptr<ClusterManager> cluster_manager_;
  std::unique_ptr<ClusterMembership> membership_;
  std::vector<std::unique_ptr<DFasterWorker>> workers_;
  // Guards the address table (read by client lazy-connect resolvers under
  // their endpoint lock) and the in-flight migration registry (aborted by
  // the recovery listener).
  mutable Mutex topology_mu_{LockRank::kHarnessTopology, "harness.topology"};
  std::vector<std::string> addresses_ GUARDED_BY(topology_mu_);
  std::vector<MigrationDriver*> active_migrations_ GUARDED_BY(topology_mu_);
  bool started_ = false;
};

/// The three Redis-style deployments of §7.5, each with `num_shards` stores:
///  * kDirect      — clients talk straight to the stores ("Redis");
///  * kPassThrough — clients talk to forwarding proxies ("Redis + proxy");
///  * kDpr         — clients talk to D-Redis proxies (libDPR).
enum class RedisDeployment { kDirect, kPassThrough, kDpr };

struct RedisClusterOptions {
  uint32_t num_shards = 2;
  RedisDeployment deployment = RedisDeployment::kDpr;
  uint64_t checkpoint_interval_us = 100000;
  uint64_t finder_interval_us = 10000;
  bool aof_sync = false;  // appendfsync=always (synchronous recoverability)
};

class DRedisCluster {
 public:
  explicit DRedisCluster(RedisClusterOptions options);
  ~DRedisCluster();

  Status Start();
  void Stop();

  std::unique_ptr<DRedisClient> NewClient(uint32_t batch_size,
                                          uint32_t window);

  /// Crashes the given shards' stores and runs the DPR recovery protocol
  /// across all proxies (kDpr deployment only).
  Status InjectFailure(const std::vector<WorkerId>& failed_shards);

  RespStore* store(uint32_t i) { return stores_[i].get(); }
  DRedisProxy* proxy(uint32_t i) { return dpr_proxies_[i].get(); }
  DprFinder* finder() { return finder_.get(); }
  ClusterManager* cluster_manager() { return cluster_manager_.get(); }

 private:
  RedisClusterOptions options_;
  std::unique_ptr<InMemoryNetwork> net_;
  std::unique_ptr<MetadataStore> metadata_;
  std::unique_ptr<DprFinder> finder_;
  std::unique_ptr<ClusterManager> cluster_manager_;
  std::vector<std::unique_ptr<RespStore>> stores_;
  std::vector<std::unique_ptr<RespStoreServer>> store_servers_;
  std::vector<std::unique_ptr<PassThroughProxy>> pass_proxies_;
  std::vector<std::unique_ptr<DRedisProxy>> dpr_proxies_;
  std::vector<std::string> client_addresses_;
  bool started_ = false;
};

}  // namespace dpr

#endif  // DPR_HARNESS_CLUSTER_H_
