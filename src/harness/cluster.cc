#include "harness/cluster.h"

#include <algorithm>
#include <utility>

#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace dpr {

// ------------------------------------------------------------ DFasterCluster

DFasterCluster::DFasterCluster(ClusterOptions options)
    : options_(std::move(options)) {}

DFasterCluster::~DFasterCluster() { Stop(); }

Status DFasterCluster::Start() {
  net_ = std::make_unique<InMemoryNetwork>();

  metadata_ = std::make_unique<MetadataStore>(
      MakeDevice(options_.backend == StorageBackend::kNull
                     ? StorageBackend::kNull
                     : StorageBackend::kLocal,
                 options_.storage_dir, "metadata.wal"));
  DPR_RETURN_NOT_OK(metadata_->Recover());
  finder_ = MakeDprFinder(
      {.kind = options_.finder, .metadata = metadata_.get()});

  // With remote_finder, the tracking plane is deployed as its own service:
  // workers and the cluster manager reach the finder through one shared
  // batching client; the local instance stays authoritative (it owns the
  // metadata store and runs the coordinator).
  if (options_.remote_finder && options_.mode == RecoverabilityMode::kDpr) {
    std::unique_ptr<RpcServer> finder_rpc;
    if (options_.transport == TransportKind::kTcp) {
      finder_rpc = MakeTcpServer(0, options_.tcp);
    } else {
      finder_rpc = net_->CreateServer("finder");
    }
    finder_server_ = std::make_unique<DprFinderServer>(finder_.get(),
                                                       std::move(finder_rpc));
    DPR_RETURN_NOT_OK(finder_server_->Start());
    std::unique_ptr<RpcConnection> finder_conn;
    if (options_.transport == TransportKind::kTcp) {
      DPR_RETURN_NOT_OK(ConnectTcp(finder_server_->address(),
                                   TcpClientOptions{options_.tcp.backend},
                                   &finder_conn));
    } else {
      finder_conn = net_->Connect(finder_server_->address());
    }
    remote_finder_ = std::make_unique<RemoteDprFinder>(std::move(finder_conn));
  }
  cluster_manager_ = std::make_unique<ClusterManager>(plane());
  membership_ = std::make_unique<ClusterMembership>(metadata_.get());
  // A recovery aborts every in-flight migration promptly; the drivers'
  // world-line fences would catch it anyway, but not before burning the
  // whole commit-barrier timeout.
  cluster_manager_->SetRecoveryListener([this](WorldLine) {
    MutexLock lock(topology_mu_);
    for (MigrationDriver* driver : active_migrations_) driver->RequestAbort();
  });

  // Seed the durable ownership table with the default assignment so every
  // later lookup (clients, transfers, elastic joins) reads complete truth.
  if (metadata_->GetOwnership().empty()) {
    for (uint32_t vp = 0; vp < YcsbWorkload::kNumPartitions; ++vp) {
      DPR_RETURN_NOT_OK(metadata_->SetOwner(
          vp, YcsbWorkload::DefaultOwner(vp, options_.num_workers)));
    }
  }
  // Founding members go straight to kActive (kJoining is the state of a
  // worker still receiving its shards; the founders start owning theirs).
  if (metadata_->GetMemberStates().empty()) {
    for (uint32_t i = 0; i < options_.num_workers; ++i) {
      DPR_RETURN_NOT_OK(membership_->Transition(i, MemberState::kJoining));
      DPR_RETURN_NOT_OK(membership_->Transition(i, MemberState::kActive));
    }
  }

  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    DPR_RETURN_NOT_OK(StartWorker(i, /*start_empty=*/false));
  }
  if (options_.mode == RecoverabilityMode::kDpr) {
    finder_->StartCoordinator(options_.finder_interval_us);
  }
  started_ = true;
  return Status::OK();
}

Status DFasterCluster::StartWorker(WorkerId id, bool start_empty) {
  const std::string name = "worker" + std::to_string(id);
  DFasterWorkerConfig config;
  config.id = id;
  config.num_workers = options_.num_workers;
  config.start_empty = start_empty;
  config.mode = options_.mode;
  config.faster.log_device =
      MakeDevice(options_.backend, options_.storage_dir, name + ".log");
  config.faster.meta_device =
      MakeDevice(options_.backend == StorageBackend::kNull
                     ? StorageBackend::kNull
                     : StorageBackend::kLocal,
                 options_.storage_dir, name + ".meta");
  config.dpr.finder = plane();
  config.dpr.checkpoint_interval_us = options_.checkpoint_interval_us;
  auto worker = std::make_unique<DFasterWorker>(std::move(config));

  std::unique_ptr<RpcServer> server;
  if (options_.transport == TransportKind::kTcp) {
    server = MakeTcpServer(0, options_.tcp);
  } else {
    server = net_->CreateServer(name);
  }
  DPR_RETURN_NOT_OK(worker->Start(std::move(server)));
  {
    MutexLock lock(topology_mu_);
    addresses_.push_back(worker->address());
  }
  if (options_.mode == RecoverabilityMode::kDpr) {
    cluster_manager_->RegisterWorker(worker->dpr_worker());
  }
  workers_.push_back(std::move(worker));
  return Status::OK();
}

DprFinder* DFasterCluster::plane() const {
  if (remote_finder_ != nullptr) return remote_finder_.get();
  return finder_.get();
}

void DFasterCluster::Stop() {
  if (!started_) return;
  started_ = false;
  if (finder_ != nullptr) finder_->StopCoordinator();
  for (auto& worker : workers_) worker->Stop();
  // Drain any reports the workers enqueued before tearing down the service.
  if (remote_finder_ != nullptr) (void)remote_finder_->Flush();
  if (finder_server_ != nullptr) finder_server_->Stop();
}

std::string DFasterCluster::AddressOf(WorkerId id) const {
  MutexLock lock(topology_mu_);
  return id < addresses_.size() ? addresses_[id] : std::string();
}

std::unique_ptr<RpcConnection> DFasterCluster::ConnectTo(
    const std::string& address) {
  if (address.empty()) return nullptr;
  if (options_.transport == TransportKind::kTcp) {
    std::unique_ptr<RpcConnection> conn;
    // Clients ride the same backend knob as the cluster's servers so a
    // chaos schedule's finder_link choice exercises one transport end to
    // end (kAuto still resolves per kernel support).
    Status s = ConnectTcp(address, TcpClientOptions{options_.tcp.backend},
                          &conn);
    if (!s.ok()) {
      DPR_WARN("connect to %s failed: %s", address.c_str(),
               s.ToString().c_str());
      return nullptr;
    }
    return conn;
  }
  return net_->Connect(address);
}

std::unique_ptr<DFasterClient> DFasterCluster::NewClient(uint32_t batch_size,
                                                         uint32_t window) {
  DFasterClientConfig config;
  config.num_workers = options_.num_workers;
  config.batch_size = batch_size;
  config.window = window;
  config.cluster_manager = cluster_manager_.get();
  config.metadata = metadata_.get();
  // Lazy endpoint resolution: a worker that joins after this client exists
  // becomes reachable the moment the ownership table routes a key to it.
  config.connect_worker =
      [this](WorkerId id) -> std::unique_ptr<RpcConnection> {
    return ConnectTo(AddressOf(id));
  };
  auto client = std::make_unique<DFasterClient>(config);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    std::unique_ptr<RpcConnection> conn = ConnectTo(AddressOf(i));
    DPR_CHECK_MSG(conn != nullptr, "no connection to worker %u", i);
    client->AddRemoteWorker(i, std::move(conn));
  }
  return client;
}

std::unique_ptr<DFasterClient> DFasterCluster::NewColocatedClient(
    WorkerId local_worker, uint32_t batch_size, uint32_t window) {
  auto client = NewClient(batch_size, window);
  client->AddLocalWorker(workers_[local_worker].get());
  return client;
}

Status DFasterCluster::InjectFailure(const std::vector<WorkerId>& failed) {
  return cluster_manager_->HandleFailure(failed);
}

WorkerId DFasterCluster::OwnerOf(uint32_t partition) const {
  const auto ownership = metadata_->GetOwnership();
  auto it = ownership.find(partition);
  if (it != ownership.end()) return it->second;
  return YcsbWorkload::DefaultOwner(partition, options_.num_workers);
}

Status DFasterCluster::MigratePartition(uint32_t partition, WorkerId to) {
  const WorkerId from = OwnerOf(partition);
  if (from == to) return Status::OK();
  if (to >= workers_.size() || workers_[to] == nullptr) {
    return Status::InvalidArgument("no such worker");
  }
  if (from >= workers_.size() || workers_[from] == nullptr) {
    return Status::InvalidArgument("partition owner not in this cluster");
  }
  MemberState to_state;
  if (membership_ != nullptr && membership_->StateOf(to, &to_state).ok() &&
      (to_state == MemberState::kDraining ||
       to_state == MemberState::kRemoved)) {
    return Status::InvalidArgument("migration target is leaving the cluster");
  }
  DFasterWorker* src = workers_[from].get();
  DFasterWorker* dst = workers_[to].get();

  // The install path rides the regular RPC transport (in-memory or TCP),
  // so migration traffic contends with client traffic exactly as it would
  // in a real deployment.
  std::unique_ptr<RpcConnection> conn = ConnectTo(AddressOf(to));
  if (conn == nullptr) return Status::Unavailable("no route to target");

  MigrationOptions mo;
  mo.partition = partition;
  mo.source = src;
  mo.target = dst;
  mo.channel = std::make_shared<MigrationChannel>(to, std::move(conn));
  mo.metadata = metadata_.get();
  if (options_.mode == RecoverabilityMode::kDpr) {
    mo.get_cut = [this](DprCut* cut) {
      WorldLine wl;
      finder_->GetCut(&wl, cut);
      return Status::OK();
    };
    mo.pump = [this, src, dst] {
      // Nudge both sides to checkpoint, push any batched reports at the
      // finder, and recompute; the coordinator timer would get there too,
      // but the barrier should not have to wait out a full interval.
      if (src->dpr_worker() != nullptr) (void)src->dpr_worker()->TryCommit();
      if (dst->dpr_worker() != nullptr) (void)dst->dpr_worker()->TryCommit();
      if (remote_finder_ != nullptr) (void)remote_finder_->Flush();
      (void)finder_->ComputeCut();
      SleepMicros(200);
    };
  }

  MigrationDriver driver(std::move(mo));
  {
    MutexLock lock(topology_mu_);
    active_migrations_.push_back(&driver);
  }
  Status s = driver.Run();
  {
    MutexLock lock(topology_mu_);
    active_migrations_.erase(std::remove(active_migrations_.begin(),
                                         active_migrations_.end(), &driver),
                             active_migrations_.end());
  }
  return s;
}

Status DFasterCluster::AddWorker(WorkerId* new_id) {
  const WorkerId id = static_cast<WorkerId>(workers_.size());
  // Partitions arrive via MigratePartition.
  DPR_RETURN_NOT_OK(StartWorker(id, /*start_empty=*/true));
  options_.num_workers += 1;
  // Durable membership row: the join survives a metadata-service crash.
  DPR_RETURN_NOT_OK(membership_->Transition(id, MemberState::kJoining));
  if (new_id != nullptr) *new_id = id;
  return Status::OK();
}

Status DFasterCluster::ActivateWorker(WorkerId id) {
  if (id >= workers_.size() || workers_[id] == nullptr) {
    return Status::InvalidArgument("no such worker");
  }
  return membership_->Transition(id, MemberState::kActive);
}

Status DFasterCluster::DecommissionWorker(WorkerId id) {
  if (id >= workers_.size() || workers_[id] == nullptr) {
    return Status::InvalidArgument("no such worker");
  }
  DPR_RETURN_NOT_OK(membership_->Transition(id, MemberState::kDraining));
  // Live-migrate every owned partition to the least-loaded active member;
  // writes keep flowing throughout, exactly as for a scale-out move.
  for (;;) {
    const auto ownership = metadata_->GetOwnership();
    uint64_t next = 0;
    bool found = false;
    for (const auto& [vp, owner] : ownership) {
      if (owner == id) {
        next = vp;
        found = true;
        break;
      }
    }
    if (!found) break;
    std::map<WorkerId, uint32_t> load;
    for (WorkerId w : membership_->ActiveMembers()) {
      if (w != id && w < workers_.size() && workers_[w] != nullptr) {
        load[w] = 0;
      }
    }
    if (load.empty()) {
      return Status::Unavailable("no active member to drain to");
    }
    for (const auto& [vp, owner] : ownership) {
      auto it = load.find(owner);
      if (it != load.end()) ++it->second;
    }
    WorkerId target = load.begin()->first;
    for (const auto& [w, n] : load) {
      if (n < load[target]) target = w;
    }
    DPR_RETURN_NOT_OK(MigratePartition(static_cast<uint32_t>(next), target));
  }
  DPR_RETURN_NOT_OK(RemoveDrainedWorker(id));
  return membership_->Transition(id, MemberState::kRemoved);
}

std::map<WorkerId, MemberState> DFasterCluster::MemberStates() const {
  if (membership_ == nullptr) return {};
  return membership_->States();
}

Status DFasterCluster::RemoveDrainedWorker(WorkerId id) {
  if (workers_[id]->OwnedPartitionCount() > 0) {
    return Status::InvalidArgument(
        "worker still owns partitions; transfer them first");
  }
  cluster_manager_->UnregisterWorker(id);
  // Stop first: Stop drains in-flight checkpoint flushes, whose persistence
  // callbacks report to the finder and would re-create a dropped row.
  workers_[id]->Stop();
  // Dropping the row removes the worker from every future DPR cut. Through
  // the plane, so a remote finder flushes the queued reports before it.
  return plane()->RemoveWorker(id);
}

// ------------------------------------------------------------- DRedisCluster

DRedisCluster::DRedisCluster(RedisClusterOptions options)
    : options_(std::move(options)) {}

DRedisCluster::~DRedisCluster() { Stop(); }

Status DRedisCluster::Start() {
  net_ = std::make_unique<InMemoryNetwork>();

  if (options_.deployment == RedisDeployment::kDpr) {
    metadata_ = std::make_unique<MetadataStore>(
        std::make_unique<MemoryDevice>());
    DPR_RETURN_NOT_OK(metadata_->Recover());
    finder_ = MakeDprFinder(
        {.kind = FinderKind::kApprox, .metadata = metadata_.get()});
    cluster_manager_ = std::make_unique<ClusterManager>(finder_.get());
  }

  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    RespStoreOptions store_options;
    store_options.aof_enabled = options_.aof_sync;
    auto store = std::make_unique<RespStore>(std::move(store_options));
    auto store_server = std::make_unique<RespStoreServer>(
        store.get(), net_->CreateServer("redis" + std::to_string(i)));
    DPR_RETURN_NOT_OK(store_server->Start());

    switch (options_.deployment) {
      case RedisDeployment::kDirect:
        client_addresses_.push_back(store_server->address());
        break;
      case RedisDeployment::kPassThrough: {
        auto proxy = std::make_unique<PassThroughProxy>(
            net_->Connect(store_server->address()),
            net_->CreateServer("proxy" + std::to_string(i)));
        DPR_RETURN_NOT_OK(proxy->Start());
        client_addresses_.push_back(proxy->address());
        pass_proxies_.push_back(std::move(proxy));
        break;
      }
      case RedisDeployment::kDpr: {
        DRedisProxy::Options proxy_options;
        proxy_options.id = i;
        proxy_options.dpr.finder = finder_.get();
        proxy_options.dpr.checkpoint_interval_us =
            options_.checkpoint_interval_us;
        auto proxy = std::make_unique<DRedisProxy>(
            proxy_options, net_->Connect(store_server->address()),
            net_->CreateServer("dredis" + std::to_string(i)), store.get());
        DPR_RETURN_NOT_OK(proxy->Start());
        cluster_manager_->RegisterWorker(proxy->dpr_worker());
        client_addresses_.push_back(proxy->address());
        dpr_proxies_.push_back(std::move(proxy));
        break;
      }
    }
    store_servers_.push_back(std::move(store_server));
    stores_.push_back(std::move(store));
  }
  if (finder_ != nullptr) {
    finder_->StartCoordinator(options_.finder_interval_us);
  }
  started_ = true;
  return Status::OK();
}

void DRedisCluster::Stop() {
  if (!started_) return;
  started_ = false;
  if (finder_ != nullptr) finder_->StopCoordinator();
  for (auto& proxy : dpr_proxies_) proxy->Stop();
  for (auto& proxy : pass_proxies_) proxy->Stop();
  for (auto& server : store_servers_) server->Stop();
}

Status DRedisCluster::InjectFailure(
    const std::vector<uint32_t>& failed_shards) {
  if (cluster_manager_ == nullptr) {
    return Status::NotSupported("failure injection requires kDpr deployment");
  }
  // Crash the backing stores first (volatile state is gone), then run the
  // DPR recovery protocol; the proxies restore via the stores' snapshot
  // reload (RemoteRespStateObject::RestoreCheckpoint).
  std::vector<WorkerId> failed;
  for (uint32_t shard : failed_shards) {
    stores_[shard]->SimulateCrash();
    failed.push_back(shard);
  }
  return cluster_manager_->HandleFailure(failed);
}

std::unique_ptr<DRedisClient> DRedisCluster::NewClient(uint32_t batch_size,
                                                       uint32_t window) {
  DRedisClientConfig config;
  config.num_shards = options_.num_shards;
  config.batch_size = batch_size;
  config.window = window;
  config.use_dpr = options_.deployment == RedisDeployment::kDpr;
  auto client = std::make_unique<DRedisClient>(config);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    client->AddShard(i, net_->Connect(client_addresses_[i]));
  }
  return client;
}

}  // namespace dpr
