//! The network object and per-node endpoints.
//!
//! Every message goes through one path, [`Endpoint::dispatch`]: fault
//! check, chaos fate, latency sample, push into the destination's inbox.
//! What happens after the push depends on the destination. A node without
//! a *runner* (a client) has its own thread, woken at `deliver_at` if it
//! is parked. A node with one ([`Network::attach`]) — a server — has no
//! thread: everything reaches it as a call to its runner, which drains the
//! inbox under the node's own lock. A zero-delay message calls it on the
//! sender's thread, a delayed message or a wake the node asked for
//! ([`Endpoint::wake_at`]) on the network's one `simnet-timer` thread at
//! its instant, and a fault change on the injector's thread.

use crate::chaos::{ChaosDecision, FaultAction, FaultPlan, MsgKind, TimedFault};
use crate::envelope::{Envelope, Payload};
use crate::fault::FaultTable;
use crate::inbox::{Inbox, RecvError};
use crate::latency::LatencyModel;
use crate::node::NodeId;
use crate::stats::NetStats;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Installed chaos state: the plan plus a protocol-supplied classifier and
/// the per-(src, dst, kind) message counters that feed the plan's
/// deterministic fate hash.
struct ChaosRuntime<M> {
    plan: FaultPlan,
    classify: Box<dyn Fn(&M) -> MsgKind + Send + Sync>,
    counters: Mutex<HashMap<(NodeId, NodeId, MsgKind), u64>>,
}

impl<M> ChaosRuntime<M> {
    /// Sequence number of the next message on this (src, dst, kind) link.
    fn next_seq(&self, src: NodeId, dst: NodeId, kind: MsgKind) -> u64 {
        let mut counters = self.counters.lock();
        let n = counters.entry((src, dst, kind)).or_insert(0);
        let cur = *n;
        *n += 1;
        cur
    }
}

/// What delivers to a node that has no thread of its own: it drains the
/// node's inbox on the caller's thread (see [`Network::attach`]).
type Runner = Arc<dyn Fn() + Send + Sync>;

struct Shared<M> {
    inboxes: Vec<Inbox<Envelope<M>>>,
    /// Per node, its runner; `None` for nodes that receive on their own
    /// thread, and for every node after [`Network::shutdown`].
    runners: Vec<RwLock<Option<Runner>>>,
    /// Wakes `(at, seq, node)`: the timer thread calls `node`'s runner at
    /// `at`. Started by the first [`Network::attach`].
    timer: Inbox<(Instant, u64, NodeId)>,
    timer_started: Once,
    /// Per node, the earliest wake queued for it. A later request is
    /// dropped: the run at this one asks again, and the timer re-queues
    /// the node's next message after it.
    earliest: Vec<Mutex<Option<Instant>>>,
    /// Per node, how many fault changes it has seen
    /// ([`Endpoint::fault_changes`]).
    fault_changes: Vec<AtomicU64>,
    latency: LatencyModel,
    faults: FaultTable,
    stats: NetStats,
    seq: AtomicU64,
    chaos: RwLock<Option<ChaosRuntime<M>>>,
}

/// A simulated message-passing network with a fixed set of nodes.
///
/// `Network` is cheap to clone (it is an `Arc` handle). Each logical node
/// obtains an [`Endpoint`] for sending and receiving. Message payloads are
/// the caller's own type `M`; the DTM layer instantiates this with its
/// protocol message enum.
pub struct Network<M> {
    shared: Arc<Shared<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: Send + Sync + 'static> Network<M> {
    /// Create a network with `nodes` addressable nodes and the given
    /// latency model.
    pub fn new(nodes: usize, latency: LatencyModel) -> Self {
        let inboxes = (0..nodes).map(|_| Inbox::new()).collect();
        Network {
            shared: Arc::new(Shared {
                inboxes,
                runners: (0..nodes).map(|_| RwLock::new(None)).collect(),
                timer: Inbox::new(),
                timer_started: Once::new(),
                earliest: (0..nodes).map(|_| Mutex::new(None)).collect(),
                fault_changes: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
                latency,
                faults: FaultTable::new(nodes),
                stats: NetStats::default(),
                seq: AtomicU64::new(0),
                chaos: RwLock::new(None),
            }),
        }
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.shared.inboxes.len()
    }

    /// Obtain the endpoint for `node`. Multiple endpoints for the same node
    /// may coexist (e.g., a sender handle cloned into another thread), but
    /// the receives for a given node must be serialised — on its one
    /// receiving thread, or for a node with a runner under the lock every
    /// runner call shares — and at most one thread may park on it: the
    /// inbox's wake protocol records one parked receiver.
    pub fn endpoint(&self, node: NodeId) -> Endpoint<M> {
        assert!(
            node.index() < self.shared.inboxes.len(),
            "node {node} out of range ({} nodes)",
            self.shared.inboxes.len()
        );
        Endpoint {
            id: node,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Fault-injection handle: mark a node failed. In-flight and future
    /// messages to it are dropped until [`Network::recover`].
    pub fn fail(&self, node: NodeId) {
        self.shared.faults.fail(node);
        self.shared.inboxes[node.index()].retain(|_| false);
        self.faults_changed(node);
    }

    /// Fault-injection handle: crash `node` **with amnesia** — besides
    /// failing it and dropping in-flight messages (as [`Network::fail`]),
    /// its amnesia epoch is advanced so the node (via
    /// [`Endpoint::amnesia_epoch`]) recovers from nothing before serving
    /// again.
    pub fn fail_amnesia(&self, node: NodeId) {
        self.crash(node, true);
    }

    /// Fault-injection handle: crash `node` **preserving its durable
    /// log** — as [`Network::fail_amnesia`], but the restart epoch
    /// ([`Endpoint::restart_epoch`]) is the one that advances: the node
    /// drops volatile state and replays its log.
    pub fn fail_restart(&self, node: NodeId) {
        self.crash(node, false);
    }

    /// The one crash routine: fail the node, record the crash, drop what
    /// was in flight to it.
    fn crash(&self, node: NodeId, disk_lost: bool) {
        self.shared.faults.crash(node, disk_lost);
        self.shared.inboxes[node.index()].retain(|_| false);
        self.faults_changed(node);
    }

    /// Deliver a change of `node`'s fault state: count it, then call the
    /// node's runner on this thread, so a crash is observed when it
    /// happens. A call that loses the node's lock leaves the change to the
    /// holder, which compares [`Endpoint::fault_changes`] after unlocking.
    fn faults_changed(&self, node: NodeId) {
        self.shared.fault_changes[node.index()].fetch_add(1, Ordering::SeqCst);
        if let Some(run) = self.shared.runner(node) {
            run();
        }
    }

    /// `node`'s amnesia epoch (0 = never amnesia-crashed).
    pub fn amnesia_epoch(&self, node: NodeId) -> u64 {
        self.shared.faults.crash_epochs(node).0
    }

    /// `node`'s crash-restart epoch (0 = never restart-crashed).
    pub fn restart_epoch(&self, node: NodeId) -> u64 {
        self.shared.faults.crash_epochs(node).1
    }

    /// Recover a previously failed node.
    ///
    /// The inbox is drained again on recovery: a sender that raced past the
    /// fault check while [`Network::fail`]'s drain ran can still have pushed
    /// a pre-crash message afterwards, and a recovering node must not replay
    /// stale pre-crash traffic.
    pub fn recover(&self, node: NodeId) {
        self.shared.inboxes[node.index()].retain(|_| false);
        self.shared.faults.recover(node);
        self.faults_changed(node);
    }

    /// Is `node` currently failed?
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.shared.faults.is_failed(node)
    }

    /// Snapshot of the failed-node set.
    pub fn failed_set(&self) -> std::collections::HashSet<NodeId> {
        self.shared.faults.failed_set()
    }

    /// Fail the directed link `src → dst`: messages in that direction are
    /// silently dropped until [`Network::heal_link`]. Neither node is
    /// crashed and nothing is drained.
    pub fn fail_link(&self, src: NodeId, dst: NodeId) {
        self.shared.faults.fail_link(src, dst);
    }

    /// Heal the directed link `src → dst`.
    pub fn heal_link(&self, src: NodeId, dst: NodeId) {
        self.shared.faults.heal_link(src, dst);
    }

    /// Is the directed link `src → dst` currently failed?
    pub fn is_link_failed(&self, src: NodeId, dst: NodeId) -> bool {
        self.shared.faults.is_link_failed(src, dst)
    }

    /// Partition the listed groups from each other (both directions of
    /// every cross-group link fail). Nodes in no group keep full
    /// connectivity.
    pub fn partition(&self, groups: &[Vec<NodeId>]) {
        self.shared.faults.partition(groups);
    }

    /// Heal every failed link, partitions included.
    pub fn heal_all_links(&self) {
        self.shared.faults.heal_all_links();
    }

    /// Install a chaos plan. `classify` maps each payload to the
    /// [`MsgKind`] the plan's rules filter on. Replaces any previous plan
    /// and resets the per-link message counters.
    pub fn set_chaos(
        &self,
        plan: FaultPlan,
        classify: impl Fn(&M) -> MsgKind + Send + Sync + 'static,
    ) {
        *self.shared.chaos.write() = Some(ChaosRuntime {
            plan,
            classify: Box::new(classify),
            counters: Mutex::new(HashMap::new()),
        });
    }

    /// Remove the installed chaos plan (timed link/node faults already
    /// applied stay in force until healed individually).
    pub fn clear_chaos(&self) {
        *self.shared.chaos.write() = None;
    }

    /// Apply one scheduled fault action now.
    pub fn apply_fault(&self, action: &FaultAction) {
        match action {
            FaultAction::Crash(n) => self.fail(*n),
            FaultAction::CrashAmnesia(n) => self.fail_amnesia(*n),
            FaultAction::CrashRestart(n) => self.fail_restart(*n),
            FaultAction::Recover(n) => self.recover(*n),
            FaultAction::FailLink { src, dst } => self.fail_link(*src, *dst),
            FaultAction::HealLink { src, dst } => self.heal_link(*src, *dst),
            FaultAction::Partition(groups) => self.partition(groups),
            FaultAction::HealAllLinks => self.heal_all_links(),
        }
    }

    /// Apply `events` (sorted or not) at their offsets from `start`,
    /// sleeping in between. Blocks until the last event has fired; run it
    /// on a supervisor thread alongside the workload.
    pub fn run_fault_schedule(&self, events: &[TimedFault], start: Instant) {
        let mut ordered: Vec<&TimedFault> = events.iter().collect();
        ordered.sort_by_key(|e| e.at);
        for ev in ordered {
            let due = start + ev.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.apply_fault(&ev.action);
        }
    }

    /// Delivery statistics.
    pub fn stats(&self) -> crate::stats::NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Deliver everything to `node` by calling `runner`, which drains the
    /// node's inbox (with [`Endpoint::try_recv`]) on the caller's
    /// thread: the sender's, right after a zero-delay message lands; the
    /// timer thread's, at a delayed message's `deliver_at` or an instant
    /// the node asked for with [`Endpoint::wake_at`]; the injector's,
    /// after a fault change. Calls race, so a runner drains under a lock;
    /// one that cannot take it leaves the work to whoever holds it, and
    /// the holder re-checks [`Endpoint::has_mature`] and
    /// [`Endpoint::fault_changes`] after unlocking. Nobody parks on the
    /// node's inbox. The first call starts the timer thread.
    ///
    /// A runner usually owns an [`Endpoint`], which owns the network:
    /// [`Network::shutdown`] drops the runners to break that cycle.
    pub fn attach(&self, node: NodeId, runner: impl Fn() + Send + Sync + 'static) {
        *self.shared.runners[node.index()].write() = Some(Arc::new(runner));
        self.shared.timer_started.call_once(|| {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("simnet-timer".into())
                .spawn(move || shared.run_timer())
                .expect("spawn the timer thread");
        });
    }

    /// Close every inbox and the timer queue, unblocking all receivers with
    /// [`RecvError::Closed`] and ending the timer thread, and drop every
    /// runner.
    pub fn shutdown(&self) {
        for inbox in &self.shared.inboxes {
            inbox.close();
        }
        self.shared.timer.close();
        for runner in &self.shared.runners {
            runner.write().take();
        }
    }
}

impl<M> Shared<M> {
    fn runner(&self, node: NodeId) -> Option<Runner> {
        self.runners[node.index()].read().clone()
    }

    /// Queue a wake of `node` at `at`, unless one no later is queued.
    fn wake_at(&self, node: NodeId, at: Instant) {
        let mut earliest = self.earliest[node.index()].lock();
        if earliest.is_none_or(|queued| queued > at) {
            *earliest = Some(at);
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.timer.push((at, seq, node), false);
        }
    }

    /// The timer thread, until its queue closes: at each wake's instant,
    /// call the node's runner. Then queue a wake for the node's next
    /// message if it is due after the call began. One due earlier was
    /// mature when the runner tried the lock, so the runner or the holder
    /// it lost to drains it.
    fn run_timer(&self) {
        let forever = Instant::now() + Duration::from_secs(u32::MAX.into());
        while let Ok((at, _, node)) = self.timer.recv_deadline(forever) {
            let (earliest, inbox) = (&self.earliest[node.index()], &self.inboxes[node.index()]);
            earliest.lock().take_if(|queued| *queued == at);
            let start = Instant::now();
            if let Some(run) = self.runner(node) {
                run();
            }
            if let Some(next) = inbox.next_due().filter(|&due| due > start) {
                self.wake_at(node, next);
            }
        }
    }
}

/// Timing metadata of one received message, for span tracing: the gap
/// `deliver_at − sent_at` is modelled wire latency, `received_at −
/// deliver_at` is inbox dwell (server queueing) — the time the message sat
/// mature in the inbox before the service loop picked it up.
#[derive(Debug, Clone, Copy)]
pub struct RecvMeta {
    /// When the sender handed the message to the network.
    pub sent_at: Instant,
    /// When the message became observable at the destination.
    pub deliver_at: Instant,
    /// When the receiving thread actually dequeued it.
    pub received_at: Instant,
}

/// Unwrap a dequeued envelope, stamping its [`RecvMeta`] now.
fn with_meta<M: Clone>(e: Envelope<M>) -> (NodeId, M, RecvMeta) {
    let meta = RecvMeta {
        sent_at: e.sent_at,
        deliver_at: e.deliver_at,
        received_at: Instant::now(),
    };
    (e.src, e.payload.into_inner(), meta)
}

/// A node's connection to the network.
pub struct Endpoint<M> {
    id: NodeId,
    shared: Arc<Shared<M>>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            id: self.id,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: Send + Clone + 'static> Endpoint<M> {
    /// The node this endpoint belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send `payload` to `to`. The message is delayed by a latency sample
    /// and dropped if the destination is failed. Sending from a failed node
    /// is also suppressed (a crashed host emits nothing).
    ///
    /// The message's wire size is approximated as `size_of::<M>()`; callers
    /// with variable-size payloads should use [`Endpoint::send_sized`].
    pub fn send(&self, to: NodeId, payload: M) {
        self.send_sized(to, payload, std::mem::size_of::<M>() as u64);
    }

    /// [`Endpoint::send`] with an explicit wire size for byte accounting.
    pub fn send_sized(&self, to: NodeId, payload: M, bytes: u64) {
        self.send_sized_at(to, payload, bytes, Instant::now());
    }

    /// [`Endpoint::send_sized`] sent at `now` — an instant the caller has
    /// just read — instead of reading the clock again. A server's pump
    /// stamps every reply of a pass with the pass's one instant.
    pub fn send_sized_at(&self, to: NodeId, payload: M, bytes: u64, now: Instant) {
        self.dispatch(to, Payload::Owned(payload), bytes, now);
    }

    /// Send one payload to every member of `members`, allocating it once
    /// and sharing it via `Arc` instead of cloning per member.
    ///
    /// Each member is still treated as an independent point-to-point send:
    /// its own fault check, its own latency sample, its own sequence number
    /// and its own message/byte counters. Sharing the allocation changes
    /// simulator cost only, never the modelled network behaviour.
    ///
    /// The last member's envelope takes the broadcast's own handle, so a
    /// member that receives after every other one did (a runner called
    /// during the last dispatch, say) unwraps the payload without a copy.
    /// All members are sent at one instant: the clock is read once.
    pub fn broadcast(&self, members: &[NodeId], payload: M, bytes_per_member: u64) {
        let Some((&last, rest)) = members.split_last() else {
            return;
        };
        let now = Instant::now();
        let shared = Arc::new(payload);
        for &to in rest {
            self.dispatch(
                to,
                Payload::Shared(Arc::clone(&shared)),
                bytes_per_member,
                now,
            );
        }
        self.dispatch(last, Payload::Shared(shared), bytes_per_member, now);
    }

    fn dispatch(&self, to: NodeId, payload: Payload<M>, bytes: u64, now: Instant) {
        self.shared.stats.record_sent(bytes);
        if self.shared.faults.is_failed(self.id) || self.shared.faults.is_failed(to) {
            self.shared.stats.record_dropped_failed();
            return;
        }
        if self.shared.faults.is_link_failed(self.id, to) {
            self.shared.stats.record_dropped_link();
            return;
        }
        // Chaos fate: drop, duplicate, delay, or deliver. `extra` is the
        // added latency for the delayed copy; a duplicate's second copy
        // carries it (first copy ships normally), a plain delay applies it
        // to the only copy.
        let mut duplicate = false;
        let mut extra = Duration::ZERO;
        if let Some(rt) = self.shared.chaos.read().as_ref() {
            let kind = (rt.classify)(payload.message());
            let n = rt.next_seq(self.id, to, kind);
            match rt.plan.decide(self.id, to, kind, n) {
                ChaosDecision::Deliver => {}
                ChaosDecision::Drop => {
                    self.shared.stats.record_dropped_chaos();
                    return;
                }
                ChaosDecision::Duplicate => {
                    duplicate = true;
                    self.shared.stats.record_chaos_duplicated();
                }
                ChaosDecision::Delay(d) => {
                    extra = d;
                    self.shared.stats.record_chaos_delayed();
                }
                ChaosDecision::DuplicateDelayed(d) => {
                    duplicate = true;
                    extra = d;
                    self.shared.stats.record_chaos_duplicated();
                    self.shared.stats.record_chaos_delayed();
                }
            }
        }
        if duplicate {
            self.enqueue(to, payload.clone(), bytes, Duration::ZERO, now);
            self.enqueue(to, payload, bytes, extra, now);
        } else {
            self.enqueue(to, payload, bytes, extra, now);
        }
    }

    fn enqueue(&self, to: NodeId, payload: Payload<M>, bytes: u64, extra: Duration, now: Instant) {
        let delay = self.shared.latency.sample(&mut rand::thread_rng()) + extra;
        let env = Envelope {
            src: self.id,
            dst: to,
            sent_at: now,
            deliver_at: now + delay,
            seq: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            payload,
        };
        let inbox = &self.shared.inboxes[to.index()];
        if !inbox.push(env, delay.is_zero()) {
            self.shared.stats.record_dropped_closed();
            return;
        }
        // Close the crash/push race: if `to` failed after our fault check,
        // its crash drain may have run before this push landed, leaving a
        // stale message to be replayed at recovery. (Recovery drains too;
        // this keeps the inbox clean even while the node stays down.) A
        // crash stores the failed flag before its drain takes the inbox
        // mutex, and this load follows our push under that mutex: either
        // the drain comes after the push and removes it, or the push comes
        // after the drain and this load sees the flag.
        if self.shared.faults.is_failed(to) {
            inbox.retain(|_| false);
            self.shared.stats.record_dropped_failed();
            return;
        }
        self.shared.stats.record_delivered(bytes);
        // If `to` has a runner, this thread delivers a message due at
        // once, the timer thread a delayed one.
        match self.shared.runner(to) {
            Some(run) if delay.is_zero() => run(),
            Some(_) => self.shared.wake_at(to, now + delay),
            None => {}
        }
    }

    /// Blocking receive with a timeout. Returns the sender and payload.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    /// Blocking receive with an absolute deadline.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<(NodeId, M), RecvError> {
        self.inbox()
            .recv_deadline(deadline)
            .map(|e| (e.src, e.payload.into_inner()))
    }

    /// [`Endpoint::recv_timeout`] that also reports the message's timing
    /// metadata (see [`RecvMeta`]).
    pub fn recv_timeout_meta(&self, timeout: Duration) -> Result<(NodeId, M, RecvMeta), RecvError> {
        let deadline = Instant::now() + timeout;
        self.inbox().recv_deadline(deadline).map(with_meta)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.inbox()
            .try_recv()
            .map(|e| (e.src, e.payload.into_inner()))
    }

    /// [`Endpoint::try_recv`] that also reports the message's timing
    /// metadata (see [`RecvMeta`]).
    pub fn try_recv_meta(&self) -> Option<(NodeId, M, RecvMeta)> {
        self.inbox().try_recv().map(with_meta)
    }

    /// Have this node's runner called at `at` at the latest, on the timer
    /// thread (see [`Network::attach`]). Dropped if a wake no later is
    /// queued already: the run at that one asks again.
    pub fn wake_at(&self, at: Instant) {
        self.shared.wake_at(self.id, at);
    }

    /// Is a message ready to be received on this node? Reads the clock
    /// only while a delayed message is queued.
    pub fn has_mature(&self) -> bool {
        self.inbox().has_mature()
    }

    /// How many fault changes ([`Network::fail`], a crash,
    /// [`Network::recover`]) this node has seen. A runner reads it before
    /// it tries the node's lock and again after unlocking: a change in
    /// between may have lost its own runner call to this holder.
    pub fn fault_changes(&self) -> u64 {
        self.shared.fault_changes[self.id.index()].load(Ordering::SeqCst)
    }

    fn inbox(&self) -> &Inbox<Envelope<M>> {
        &self.shared.inboxes[self.id.index()]
    }

    /// Number of queued (possibly not yet mature) messages.
    pub fn pending(&self) -> usize {
        self.inbox().len()
    }

    /// Is this endpoint's own node failed?
    pub fn is_failed(&self) -> bool {
        self.shared.faults.is_failed(self.id)
    }

    /// This node's amnesia epoch. A node that observes the epoch
    /// moving past the last value it acted on must treat its local state
    /// as lost, its durable log included: recover from nothing, then catch
    /// up before serving.
    pub fn amnesia_epoch(&self) -> u64 {
        self.shared.faults.crash_epochs(self.id).0
    }

    /// This node's crash-restart epoch. A node that observes the
    /// epoch moving past the last value it acted on must drop volatile
    /// state and replay its durable log before serving.
    pub fn restart_epoch(&self) -> u64 {
        self.shared.faults.crash_epochs(self.id).1
    }

    /// Upper-bound one-way latency of the network's model (for timeouts).
    pub fn max_latency(&self) -> Duration {
        self.shared.latency.max_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_delivery() {
        let net: Network<u32> = Network::new(3, LatencyModel::Zero);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 99);
        let (src, v) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((src, v), (NodeId(0), 99));
    }

    #[test]
    fn fifo_under_zero_latency() {
        let net: Network<u32> = Network::new(2, LatencyModel::Zero);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        for i in 0..100 {
            a.send(NodeId(1), i);
        }
        for i in 0..100 {
            let (_, v) = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(v, i);
        }
    }

    #[test]
    fn latency_delays_delivery() {
        let net: Network<u32> = Network::new(2, LatencyModel::Constant(Duration::from_millis(15)));
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        let start = Instant::now();
        a.send(NodeId(1), 1);
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(14));
    }

    #[test]
    fn messages_to_failed_node_are_dropped() {
        let net: Network<u32> = Network::new(2, LatencyModel::Zero);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        net.fail(NodeId(1));
        a.send(NodeId(1), 7);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
        net.recover(NodeId(1));
        a.send(NodeId(1), 8);
        let (_, v) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(v, 8);
    }

    #[test]
    fn failing_a_node_drops_inflight_messages() {
        let net: Network<u32> = Network::new(2, LatencyModel::Constant(Duration::from_millis(50)));
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 1); // in flight for 50 ms
        net.fail(NodeId(1));
        net.recover(NodeId(1));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            RecvError::Timeout,
            "in-flight message should have been lost with the crash"
        );
    }

    #[test]
    fn amnesia_crash_fails_drains_and_bumps_epoch() {
        let net: Network<u32> = Network::new(2, LatencyModel::Constant(Duration::from_millis(50)));
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        assert_eq!(b.amnesia_epoch(), 0);
        a.send(NodeId(1), 1); // in flight for 50 ms
        net.fail_amnesia(NodeId(1));
        assert!(net.is_failed(NodeId(1)), "amnesia crash is also a crash");
        assert_eq!(net.amnesia_epoch(NodeId(1)), 1);
        net.recover(NodeId(1));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            RecvError::Timeout,
            "in-flight message lost with the crash"
        );
        assert_eq!(
            b.amnesia_epoch(),
            1,
            "epoch survives recovery for the node to act on"
        );
        a.send(NodeId(1), 2);
        let (_, v) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(v, 2, "recovered node is reachable again");
    }

    #[test]
    fn restart_crash_fails_drains_and_bumps_only_its_epoch() {
        let net: Network<u32> = Network::new(2, LatencyModel::Constant(Duration::from_millis(50)));
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        assert_eq!(b.restart_epoch(), 0);
        a.send(NodeId(1), 1); // in flight for 50 ms
        net.fail_restart(NodeId(1));
        assert!(net.is_failed(NodeId(1)), "restart crash is also a crash");
        assert_eq!(net.restart_epoch(NodeId(1)), 1);
        assert_eq!(
            net.amnesia_epoch(NodeId(1)),
            0,
            "a restart preserves the log: amnesia must not fire"
        );
        net.recover(NodeId(1));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(80)).unwrap_err(),
            RecvError::Timeout,
            "in-flight message lost with the crash"
        );
        assert_eq!(
            b.restart_epoch(),
            1,
            "epoch survives recovery for the node to act on"
        );
        a.send(NodeId(1), 2);
        let (_, v) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(v, 2, "recovered node is reachable again");
    }

    #[test]
    fn a_zero_delay_message_queued_before_a_crash_is_not_received_after_recovery() {
        let crashes: [fn(&Network<u32>, NodeId); 3] =
            [Network::fail, Network::fail_amnesia, Network::fail_restart];
        for crash in crashes {
            let net: Network<u32> = Network::new(2, LatencyModel::Zero);
            let a = net.endpoint(NodeId(0));
            let b = net.endpoint(NodeId(1));
            // `b` has no runner: the message waits in its ready lane.
            a.send(NodeId(1), 1);
            assert_eq!(b.pending(), 1);
            assert!(b.has_mature());
            crash(&net, NodeId(1));
            assert_eq!(b.pending(), 0, "the crash drain empties the ready lane");
            net.recover(NodeId(1));
            assert_eq!(b.try_recv(), None, "pre-crash traffic replayed");
            a.send(NodeId(1), 2);
            assert_eq!(b.try_recv(), Some((NodeId(0), 2)));
        }
    }

    #[test]
    fn failed_sender_emits_nothing() {
        let net: Network<u32> = Network::new(2, LatencyModel::Zero);
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        net.fail(NodeId(0));
        a.send(NodeId(1), 1);
        assert_eq!(
            b.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn shutdown_unblocks_receivers() {
        let net: Network<u32> = Network::new(1, LatencyModel::Zero);
        let e = net.endpoint(NodeId(0));
        let n2 = net.clone();
        let h = std::thread::spawn(move || e.recv_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(10));
        n2.shutdown();
        assert_eq!(h.join().unwrap().unwrap_err(), RecvError::Closed);
    }

    #[test]
    fn recv_meta_separates_wire_time_from_inbox_dwell() {
        let net: Network<u32> = Network::new(2, LatencyModel::Constant(Duration::from_millis(10)));
        let a = net.endpoint(NodeId(0));
        let b = net.endpoint(NodeId(1));
        a.send(NodeId(1), 5);
        std::thread::sleep(Duration::from_millis(25)); // let it sit mature
        let (_, v, meta) = b.recv_timeout_meta(Duration::from_secs(1)).unwrap();
        assert_eq!(v, 5);
        assert!(meta.deliver_at - meta.sent_at >= Duration::from_millis(10));
        assert!(
            meta.received_at - meta.deliver_at >= Duration::from_millis(10),
            "message matured well before the receive, so dwell must show"
        );
    }

    #[test]
    fn stats_track_sends_and_drops() {
        let net: Network<u32> = Network::new(2, LatencyModel::Zero);
        let a = net.endpoint(NodeId(0));
        a.send(NodeId(1), 1);
        net.fail(NodeId(1));
        a.send(NodeId(1), 2);
        let s = net.stats();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped_failed, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn endpoint_out_of_range_panics() {
        let net: Network<u32> = Network::new(2, LatencyModel::Zero);
        let _ = net.endpoint(NodeId(5));
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let net: Network<u64> = Network::new(5, LatencyModel::lan());
        let rx = net.endpoint(NodeId(4));
        let mut handles = Vec::new();
        for n in 0..4u32 {
            let ep = net.endpoint(NodeId(n));
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    ep.send(NodeId(4), u64::from(n) * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = std::collections::HashSet::new();
        for _ in 0..200 {
            let (_, v) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(got.insert(v), "duplicate delivery of {v}");
        }
        assert_eq!(got.len(), 200);
    }
}
