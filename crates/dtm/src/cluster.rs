//! Cluster bring-up: build the servers, attach each to the network as a
//! runner, hand out clients.
//!
//! A server has no thread of its own (see [`crate::server`]): the network
//! calls its runner on whichever thread delivers to it. The one thread a
//! server may get is `qr-sync-{rank}`, for a log that syncs to a file.

use crate::client::{ClientConfig, DtmClient};
use crate::contention::WindowConfig;
use crate::messages::Msg;
use crate::server::{self, Server, ServerStats, SyncConfig, DEFAULT_PREPARED_TTL};
use crate::wal::{DurabilityMode, FaultLog, FaultLogConfig, FileLog, MemLog, Persistence};
use acn_obs::SpanCollector;
use acn_quorum::{DaryTree, LevelQuorums, ReadLevelPolicy};
use acn_simnet::{Endpoint, FaultPlan, LatencyModel, Network, NodeId};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which durable-log backend each server gets (see [`crate::Persistence`]).
#[derive(Debug, Clone, Default)]
pub enum PersistenceMode {
    /// Per-server in-memory ring (the default): survives a simulated
    /// [`Cluster::fail_server_restart`] — the server keeps owning the log
    /// across the fault — but not process death. Right for tests.
    #[default]
    Memory,
    /// Append-only file log per server at `dir/server-{rank}.wal`,
    /// length-prefixed checksummed frames. Each server starts with its
    /// log empty — a file an earlier run left there is truncated, never
    /// replayed — and the log survives the cluster's simulated restarts.
    File(PathBuf),
}

/// Cluster shape and protocol parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of quorum servers (node ids `0..servers`).
    pub servers: usize,
    /// Number of client slots (node ids `servers..servers+clients`).
    pub clients: usize,
    /// Tree arity for quorum construction (the paper uses 3).
    pub arity: usize,
    /// Read-quorum level policy.
    pub read_policy: ReadLevelPolicy,
    /// Per-message network latency model.
    pub latency: LatencyModel,
    /// Contention-window length on servers.
    pub window: WindowConfig,
    /// Protocol knobs applied to every client.
    pub client_cfg: ClientConfig,
    /// Prepared-entry TTL applied to every server. Must comfortably exceed
    /// the clients' worst-case phase-2 latency
    /// (`rpc_timeout × (quorum_retries + 1)` plus backoffs): sweeping a
    /// *live* client's locks lets another transaction slip a commit in
    /// between, after which version monotonicity silently discards the
    /// first client's phase-2 writes on this replica — a torn commit the
    /// history checker will flag.
    pub prepared_ttl: Duration,
    /// Shared sink for server-side spans. `None` (the default) leaves the
    /// servers span-free; when set, every server records inbox-dwell /
    /// handling / sync-refusal spans for requests that arrive wrapped in
    /// [`Msg::Traced`].
    pub spans: Option<Arc<SpanCollector>>,
    /// Durable-log backend per server (write-ahead decision log replayed
    /// on crash-restart).
    pub persistence: PersistenceMode,
    /// When servers release 2PC acks relative to the WAL (default:
    /// [`DurabilityMode::EveryRecord`] — sync before every ack).
    pub durability: DurabilityMode,
    /// Storage fault injection: when set, every server's WAL backend is
    /// wrapped in a [`FaultLog`] with this configuration (the seed is
    /// decorrelated per rank so replicas don't fail in lockstep).
    pub wal_faults: Option<FaultLogConfig>,
}

impl ClusterConfig {
    /// A small deterministic cluster for tests: zero latency, 1 server tree
    /// of `servers` nodes.
    pub fn test(servers: usize, clients: usize) -> Self {
        ClusterConfig {
            servers,
            clients,
            arity: 3,
            read_policy: ReadLevelPolicy::Deepest,
            latency: LatencyModel::Zero,
            window: WindowConfig::default(),
            client_cfg: ClientConfig::default(),
            prepared_ttl: DEFAULT_PREPARED_TTL,
            spans: None,
            persistence: PersistenceMode::default(),
            durability: DurabilityMode::default(),
            wal_faults: None,
        }
    }

    /// The paper's test-bed shape: 10 servers, ternary tree, LAN latency.
    pub fn paper(clients: usize) -> Self {
        ClusterConfig {
            servers: 10,
            clients,
            arity: 3,
            read_policy: ReadLevelPolicy::Deepest,
            latency: LatencyModel::lan(),
            window: WindowConfig::default(),
            client_cfg: ClientConfig::default(),
            prepared_ttl: DEFAULT_PREPARED_TTL,
            spans: None,
            persistence: PersistenceMode::default(),
            durability: DurabilityMode::default(),
            wal_faults: None,
        }
    }
}

/// A running cluster: the servers plus the shared network. Clients are
/// created with [`Cluster::client`] and moved into workload threads.
pub struct Cluster {
    cfg: ClusterConfig,
    net: Network<Msg>,
    quorums: LevelQuorums,
    servers: Vec<(Arc<Mutex<Server>>, Endpoint<Msg>)>,
    sync_threads: Vec<JoinHandle<()>>,
}

impl Cluster {
    /// Start `cfg.servers` servers.
    pub fn start(cfg: ClusterConfig) -> Cluster {
        Cluster::start_with(cfg, |wal| wal)
    }

    /// [`Cluster::start`], with each server's log backend passed through
    /// `wrap` last (tests observe the backend this way).
    fn start_with(
        cfg: ClusterConfig,
        wrap: impl Fn(Box<dyn Persistence>) -> Box<dyn Persistence>,
    ) -> Cluster {
        let net: Network<Msg> = Network::new(cfg.servers + cfg.clients, cfg.latency.clone());
        let quorums =
            LevelQuorums::with_policy(DaryTree::new(cfg.servers, cfg.arity), cfg.read_policy);
        let mut sync_threads = Vec::new();
        let servers = (0..cfg.servers)
            .map(|rank| {
                let endpoint = net.endpoint(NodeId(rank as u32));
                let mut server = Server::new(cfg.window);
                server.set_prepared_ttl(cfg.prepared_ttl);
                server.set_sync_config(SyncConfig {
                    quorums: quorums.clone(),
                    rank,
                    servers: cfg.servers,
                });
                if let Some(spans) = &cfg.spans {
                    server.set_span_collector(spans.clone());
                }
                let wal: Box<dyn Persistence> = match &cfg.persistence {
                    PersistenceMode::Memory => Box::new(MemLog::new()),
                    PersistenceMode::File(dir) => {
                        std::fs::create_dir_all(dir).expect("create WAL directory");
                        Box::new(
                            FileLog::create(dir.join(format!("server-{rank}.wal")))
                                .expect("open server WAL"),
                        )
                    }
                };
                let wal: Box<dyn Persistence> = match &cfg.wal_faults {
                    Some(faults) => {
                        let mut faults = faults.clone();
                        // Decorrelate the per-replica fault streams: the
                        // same base seed must not make every server's disk
                        // fail on the same operation index.
                        faults.seed ^= (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        Box::new(FaultLog::new(wal, faults))
                    }
                    None => wal,
                };
                server.set_persistence(wrap(wal));
                server.set_durability(cfg.durability.clone());
                // One state machine under one lock, run by whichever
                // thread delivers; a file's fsyncs get a thread of their own.
                let server = Arc::new(Mutex::new(server));
                let syncer = matches!(cfg.persistence, PersistenceMode::File(_)).then(|| {
                    let (owed, rx) = sync_channel(1);
                    let (s, ep) = (Arc::clone(&server), endpoint.clone());
                    let thread = std::thread::Builder::new().name(format!("qr-sync-{rank}"));
                    let thread = thread.spawn(move || server::sync_loop(&s, &ep, rx));
                    sync_threads.push(thread.expect("spawn sync thread"));
                    owed
                });
                let (s, ep) = (Arc::clone(&server), endpoint.clone());
                net.attach(ep.id(), move || server::run(&s, &ep, syncer.as_ref()));
                (server, endpoint)
            })
            .collect();
        Cluster {
            cfg,
            net,
            quorums,
            servers,
            sync_threads,
        }
    }

    /// The shared network (fault injection, stats).
    pub fn net(&self) -> &Network<Msg> {
        &self.net
    }

    /// The configuration the cluster was started with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Build the client for slot `i` (0-based). Each slot must be used by
    /// at most one thread at a time.
    pub fn client(&self, i: usize) -> DtmClient {
        assert!(i < self.cfg.clients, "client slot {i} out of range");
        let node = NodeId((self.cfg.servers + i) as u32);
        DtmClient::new(
            self.net.clone(),
            self.net.endpoint(node),
            self.quorums.clone(),
            self.cfg.client_cfg,
        )
    }

    /// Fail server `rank` (dropped messages, no service).
    pub fn fail_server(&self, rank: usize) {
        assert!(rank < self.cfg.servers);
        self.net.fail(NodeId(rank as u32));
    }

    /// Crash server `rank` *with amnesia*: its messages drop, its memory
    /// and its durable log are lost, and — once recovered — the replica
    /// must catch up from a read quorum of peers, fetching everything,
    /// before it serves reads or votes in prepares again.
    pub fn fail_server_amnesia(&self, rank: usize) {
        assert!(rank < self.cfg.servers);
        self.net.fail_amnesia(NodeId(rank as u32));
    }

    /// Crash server `rank` *keeping its durable log*: the same recovery
    /// as [`Cluster::fail_server_amnesia`] over a log that survived — the
    /// replica replays its WAL into store, prepared table and completion
    /// records, and catch-up fetches only the writes it missed before it
    /// serves reads or votes again.
    pub fn fail_server_restart(&self, rank: usize) {
        assert!(rank < self.cfg.servers);
        self.net.fail_restart(NodeId(rank as u32));
    }

    /// Recover server `rank`.
    pub fn recover_server(&self, rank: usize) {
        assert!(rank < self.cfg.servers);
        self.net.recover(NodeId(rank as u32));
    }

    /// Install a chaos plan on the cluster network, classifying messages by
    /// [`Msg::kind`] so the plan's (src, dst, kind) rules apply to protocol
    /// message types.
    pub fn install_chaos(&self, plan: &FaultPlan) {
        self.net.set_chaos(plan.clone(), Msg::kind);
    }

    /// Remove the installed chaos plan.
    pub fn clear_chaos(&self) {
        self.net.clear_chaos();
    }

    /// Partition the cluster: `side_servers` (ranks) and `side_clients`
    /// (slots) form one side, everyone else the other. Both directions of
    /// every cross-side link fail until [`Cluster::heal_partition`].
    pub fn partition(&self, side_servers: &[usize], side_clients: &[usize]) {
        let mut side: Vec<NodeId> = Vec::new();
        let mut rest: Vec<NodeId> = Vec::new();
        for rank in 0..self.cfg.servers {
            if side_servers.contains(&rank) {
                side.push(NodeId(rank as u32));
            } else {
                rest.push(NodeId(rank as u32));
            }
        }
        for slot in 0..self.cfg.clients {
            let node = NodeId((self.cfg.servers + slot) as u32);
            if side_clients.contains(&slot) {
                side.push(node);
            } else {
                rest.push(node);
            }
        }
        self.net.partition(&[side, rest]);
    }

    /// Heal every failed link (partitions included).
    pub fn heal_partition(&self) {
        self.net.heal_all_links();
    }

    /// Orderly shutdown: stop every server and collect their stats.
    pub fn shutdown(self) -> Vec<ServerStats> {
        // Heal every fault, so each server ends recovered and reachable.
        self.net.clear_chaos();
        self.net.heal_all_links();
        for rank in 0..self.cfg.servers {
            self.net.recover(NodeId(rank as u32));
        }
        // Dropping the runners drops the sync threads' one sender each.
        self.net.shutdown();
        for thread in self.sync_threads {
            thread.join().expect("sync thread panicked");
        }
        let servers = self.servers.iter();
        servers.map(|(s, ep)| server::finish(s, ep)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Framed, LoadedLog, WalError, WalRecord};
    use crate::{TxnCtx, TxnId};
    use acn_txir::{FieldId, ObjClass, ObjectId, ObjectVal, Value};

    #[test]
    fn cluster_starts_and_stops() {
        let c = Cluster::start(ClusterConfig::test(4, 1));
        let stats = c.shutdown();
        assert_eq!(stats.len(), 4);
        assert!(stats.iter().all(|s| *s == ServerStats::default()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn client_slot_bounds_checked() {
        let c = Cluster::start(ClusterConfig::test(1, 1));
        let _ = c.client(5);
        // (cluster leaks on panic; fine in a should_panic test)
    }

    /// Passes everything through, recording which thread ran each sync.
    struct SyncWitness {
        inner: Box<dyn Persistence>,
        threads: Arc<Mutex<Vec<String>>>,
    }

    impl Persistence for SyncWitness {
        fn append(&mut self, rec: &dyn Framed) -> Result<(), WalError> {
            self.inner.append(rec)
        }

        fn sync(&mut self) -> Result<(), WalError> {
            let me = std::thread::current();
            self.threads
                .lock()
                .push(me.name().unwrap_or("?").to_string());
            self.inner.sync()
        }

        fn load(&mut self) -> LoadedLog {
            self.inner.load()
        }

        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    /// Held by every test that starts a file-logged cluster or counts
    /// threads by name, so one never sees another's `qr-sync-*` threads.
    static THREADS: Mutex<()> = Mutex::new(());

    /// The names of this process's threads (Linux: `/proc/self/task`).
    #[cfg(target_os = "linux")]
    fn thread_names() -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").unwrap();
        let comm = tasks.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok());
        comm.map(|name| name.trim().to_string()).collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_memory_cluster_spawns_no_server_thread() {
        let _threads = THREADS.lock();
        // Constant latency: requests reach the servers on the timer thread.
        let mut cfg = ClusterConfig::test(4, 1);
        cfg.latency = LatencyModel::Constant(Duration::from_micros(50));
        let c = Cluster::start(cfg);
        let mut client = c.client(0);
        for i in 0..10 {
            let obj = ObjectId::new(ObjClass::new(0, "C"), i % 4);
            let mut t = TxnCtx::begin(&mut client);
            t.open(&mut client, obj, true).unwrap();
            t.set_field(obj, FieldId(0), Value::Int(i as i64));
            t.commit(&mut client).unwrap();
        }
        let names = thread_names();
        let stats = c.shutdown();
        assert_eq!(stats.iter().map(|s| s.commits).sum::<u64>(), 10 * 3);
        assert!(
            names.iter().all(|name| !name.starts_with("qr-")),
            "a server thread runs: {names:?}"
        );
        assert!(names.iter().any(|name| name == "simnet-timer"), "{names:?}");
    }

    #[test]
    fn file_syncs_run_on_sync_threads() {
        let _threads = THREADS.lock();
        // Zero latency: every request runs its server on the client's
        // thread, yet the fsyncs it makes due must wait for the sync
        // threads.
        let dir = std::env::temp_dir().join(format!("acn-sync-threads-{}", std::process::id()));
        let mut cfg = ClusterConfig::test(4, 1);
        cfg.persistence = PersistenceMode::File(dir.clone());
        cfg.durability = DurabilityMode::GroupCommit {
            max_records: 32,
            max_delay: Duration::from_millis(1),
        };
        let threads: Arc<Mutex<Vec<String>>> = Arc::default();
        let witness = Arc::clone(&threads);
        let c = Cluster::start_with(cfg, move |inner| {
            let threads = Arc::clone(&witness);
            Box::new(SyncWitness { inner, threads })
        });
        let mut client = c.client(0);
        for i in 0..20 {
            let obj = ObjectId::new(ObjClass::new(0, "C"), i % 4);
            let mut t = TxnCtx::begin(&mut client);
            t.open(&mut client, obj, true).unwrap();
            t.set_field(obj, FieldId(0), Value::Int(i as i64));
            t.commit(&mut client).unwrap();
        }
        #[cfg(target_os = "linux")]
        {
            let mut names = thread_names();
            names.retain(|name| name.starts_with("qr-"));
            names.sort();
            assert_eq!(names, ["qr-sync-0", "qr-sync-1", "qr-sync-2", "qr-sync-3"]);
        }
        let stats = c.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        assert!(stats.iter().map(|s| s.wal_sync_batches).sum::<u64>() > 0);
        let threads = threads.lock().clone();
        assert!(
            threads.iter().all(|name| name.starts_with("qr-sync-")),
            "a sync ran off the sync threads: {threads:?}"
        );
    }

    #[test]
    fn file_cluster_never_replays_a_log_an_earlier_run_left() {
        let _threads = THREADS.lock();
        // An earlier run's log holds a write this cluster never makes.
        let dir = std::env::temp_dir().join(format!("acn-stale-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ghost = ObjectId::new(ObjClass::new(0, "C"), 999);
        let mut stale = FileLog::open(dir.join("server-0.wal")).unwrap();
        stale
            .append(&WalRecord::CommitApply {
                txn: TxnId {
                    client: NodeId(77),
                    seq: 1,
                },
                req: 1,
                writes: vec![(ghost, 99, ObjectVal::new())],
            })
            .unwrap();
        stale.sync().unwrap();
        drop(stale);

        let mut cfg = ClusterConfig::test(4, 2);
        cfg.persistence = PersistenceMode::File(dir.clone());
        let c = Cluster::start(cfg);
        let mut client = c.client(0);
        let obj = ObjectId::new(ObjClass::new(0, "C"), 1);
        let mut t = TxnCtx::begin(&mut client);
        t.open(&mut client, obj, true).unwrap();
        t.set_field(obj, FieldId(0), Value::Int(5));
        t.commit(&mut client).unwrap();
        // A restart replays server 0's log: only this cluster's records.
        c.fail_server_restart(0);
        c.recover_server(0);
        // The crash reaches server 0 as a call to its runner, which replays
        // the log before the call returns; a probe sent after it is
        // answered by the restarted replica.
        let probe = c.net().endpoint(NodeId(5));
        probe.send(
            NodeId(0),
            Msg::ContentionReq {
                req: 1,
                classes: vec![],
            },
        );
        let (from, _) = probe.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId(0));
        let stats = c.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(stats[0].restart_replays, 1);
        for (rank, s) in stats.iter().enumerate() {
            assert!(
                s.inventory.iter().all(|&(o, _)| o != ghost),
                "server {rank} holds the stale log's write: {:?}",
                s.inventory
            );
        }
    }

    #[test]
    fn paper_config_shape() {
        let cfg = ClusterConfig::paper(20);
        assert_eq!(cfg.servers, 10);
        assert_eq!(cfg.clients, 20);
        assert_eq!(cfg.arity, 3);
    }
}
