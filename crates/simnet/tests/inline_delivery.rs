//! Delivery by call: everything that reaches a node with a runner
//! ([`Network::attach`]) reaches it as a call to the runner, on whichever
//! thread delivers. These tests pin whose thread that is — the sender's
//! for a zero-delay message, the `simnet-timer` thread for a delayed one
//! or a wake the node asked for, the injector's for a fault change — that
//! a lock-sharing runner loses no message and no fault change however the
//! calls race, and that shutdown breaks the runner's reference cycle.

use acn_simnet::{Endpoint, LatencyModel, Network, NodeId};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const SENDER: NodeId = NodeId(0);
const NODE: NodeId = NodeId(1);

/// One runner call: its thread's name, when it began, and what it drained.
type Call = (String, Instant, Vec<u32>);

/// Attach a runner to `NODE` that drains the inbox and records each call.
fn recording_runner(net: &Network<u32>) -> Arc<Mutex<Vec<Call>>> {
    let calls: Arc<Mutex<Vec<Call>>> = Arc::default();
    let (log, ep) = (Arc::clone(&calls), net.endpoint(NODE));
    net.attach(NODE, move || {
        let me = std::thread::current();
        let name = me.name().unwrap_or("?").to_string();
        let at = Instant::now();
        let got = std::iter::from_fn(|| ep.try_recv().map(|(_, v)| v)).collect();
        log.lock().push((name, at, got));
    });
    calls
}

/// Wait up to three seconds for `done` to hold.
fn eventually(done: impl Fn() -> bool) -> bool {
    let give_up = Instant::now() + Duration::from_secs(3);
    while !done() && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

#[test]
fn the_runner_runs_on_the_senders_thread() {
    let net: Network<u32> = Network::new(2, LatencyModel::Zero);
    let ran: Arc<Mutex<Vec<(ThreadId, u32)>>> = Arc::default();
    let (log, ep) = (Arc::clone(&ran), net.endpoint(NODE));
    net.attach(NODE, move || {
        while let Some((_, v)) = ep.try_recv() {
            log.lock().push((std::thread::current().id(), v));
        }
    });
    let tx = net.endpoint(SENDER);
    tx.send(NODE, 7);
    let sender = std::thread::spawn(move || {
        tx.send(NODE, 8);
        std::thread::current().id()
    })
    .join()
    .unwrap();
    let main = std::thread::current().id();
    assert_eq!(*ran.lock(), vec![(main, 7), (sender, 8)]);
    assert_eq!(net.stats().delivered, 2, "the same stats path");
    net.shutdown();
}

#[test]
fn a_delayed_message_runs_the_runner_on_the_timer_thread() {
    let delay = Duration::from_millis(5);
    let net: Network<u32> = Network::new(2, LatencyModel::Constant(delay));
    let calls = recording_runner(&net);
    let start = Instant::now();
    net.endpoint(SENDER).send(NODE, 9);
    assert!(eventually(|| !calls.lock().is_empty()));
    // The first call is the timer's, so the sender made none.
    let (name, at, got) = calls.lock()[0].clone();
    assert_eq!(name, "simnet-timer");
    assert!(
        at >= start + delay,
        "called {:?} after the send",
        at - start
    );
    assert_eq!(got, vec![9]);
    net.shutdown();
}

#[test]
fn wake_at_calls_the_runner_at_the_earliest_instant_asked_for() {
    let net: Network<u32> = Network::new(2, LatencyModel::Zero);
    let calls = recording_runner(&net);
    let ep = net.endpoint(NODE);
    let start = Instant::now();
    let (early, late) = (Duration::from_millis(20), Duration::from_millis(400));
    ep.wake_at(start + late);
    ep.wake_at(start + early);
    // No earlier than the wake queued at `early`: queues nothing.
    ep.wake_at(start + Duration::from_millis(300));
    assert!(eventually(|| calls.lock().len() == 2));
    std::thread::sleep(Duration::from_millis(50));
    let calls = calls.lock().clone();
    assert_eq!(calls.len(), 2, "one call per queued wake: {calls:?}");
    let offsets: Vec<_> = calls.iter().map(|(_, at, _)| *at - start).collect();
    assert!(offsets[0] >= early && offsets[0] < late, "{offsets:?}");
    assert!(offsets[1] >= late, "{offsets:?}");
    assert!(calls.iter().all(|(name, ..)| name == "simnet-timer"));
    net.shutdown();
}

#[test]
fn a_fault_change_calls_the_runner_on_the_injectors_thread() {
    let net: Network<u32> = Network::new(2, LatencyModel::Constant(Duration::from_secs(1)));
    let calls = recording_runner(&net);
    let ep = net.endpoint(NODE);
    net.endpoint(SENDER).send(NODE, 1); // in flight for a second
    let me = std::thread::current().name().unwrap().to_string();
    let mine = |calls: &[Call]| calls.iter().filter(|(name, ..)| *name == me).count();
    net.fail_restart(NODE);
    assert_eq!(mine(&calls.lock()), 1, "called before the crash returned");
    assert_eq!(ep.fault_changes(), 1);
    net.recover(NODE);
    assert_eq!(mine(&calls.lock()), 2, "and before the recovery returned");
    assert_eq!(ep.fault_changes(), 2);
    // The wake the message queued still fires, and finds nothing.
    assert!(eventually(|| calls.lock().len() == 3));
    let calls = calls.lock().clone();
    assert!(
        calls.iter().all(|(_, _, got)| got.is_empty()),
        "the crash lost what was in flight: {calls:?}"
    );
    net.shutdown();
}

#[test]
fn a_fault_change_that_finds_the_lock_held_is_seen_once_the_holder_unlocks() {
    let net: Network<u32> = Network::new(2, LatencyModel::Zero);
    // What the node last observed of its fault state, behind its lock.
    let observed: Arc<Mutex<Option<bool>>> = Arc::default();
    let (held_tx, held) = mpsc::channel();
    let (go, go_rx) = mpsc::channel::<()>();
    // The first call keeps the lock until the test says go.
    let hold = Mutex::new(Some((held_tx, go_rx)));
    let (seen, ep) = (Arc::clone(&observed), net.endpoint(NODE));
    net.attach(NODE, move || loop {
        let faults = ep.fault_changes();
        let Some(mut s) = seen.try_lock() else {
            return;
        };
        *s = Some(ep.is_failed());
        if let Some((held, go)) = hold.lock().take() {
            held.send(()).unwrap();
            go.recv().unwrap();
        }
        drop(s);
        if !ep.has_mature() && ep.fault_changes() == faults {
            return;
        }
    });
    // The holder is a wake on the timer thread: no message is sent.
    net.endpoint(NODE).wake_at(Instant::now());
    held.recv().unwrap();
    net.fail(NODE); // its runner call loses the lock
    go.send(()).unwrap();
    assert!(
        eventually(|| *observed.lock() == Some(true)),
        "the crash was never observed: {:?}",
        *observed.lock()
    );
    net.shutdown();
}

/// The runner protocol a server uses: drain under the node's lock unless
/// another thread holds it, and look at the inbox again after unlocking.
/// This one also holds the lock for a random while after draining, so
/// senders keep finding it taken.
fn locking_runner(seen: &Mutex<HashSet<u64>>, ep: &Endpoint<u64>) {
    while let Some(mut held) = seen.try_lock() {
        while let Some((_, v)) = ep.try_recv() {
            assert!(held.insert(v), "message {v} handled twice");
        }
        for _ in 0..rand::thread_rng().gen_range(0..4u32) {
            std::thread::yield_now();
        }
        drop(held);
        if !ep.has_mature() {
            return;
        }
    }
}

#[test]
fn racing_senders_against_a_lock_holding_runner_lose_nothing() {
    const SENDERS: u64 = 4;
    const PER_SENDER: u64 = 10_000;
    let net: Network<u64> = Network::new(SENDERS as usize + 1, LatencyModel::Zero);
    let node = NodeId(SENDERS as u32);
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::default();
    let (s, ep) = (Arc::clone(&seen), net.endpoint(node));
    net.attach(node, move || locking_runner(&s, &ep));
    // Senders go in rounds, all at once. Between rounds every send has
    // returned, so every runner call has too: anything still queued then
    // was stranded by a holder that did not look again.
    let round = Arc::new(Barrier::new(SENDERS as usize));
    let stranded = Arc::new(AtomicUsize::new(0));
    let senders: Vec<_> = (0..SENDERS)
        .map(|n| {
            let (tx, rx) = (net.endpoint(NodeId(n as u32)), net.endpoint(node));
            let (round, stranded) = (Arc::clone(&round), Arc::clone(&stranded));
            std::thread::spawn(move || {
                for i in 0..PER_SENDER {
                    tx.send(node, n * PER_SENDER + i);
                    round.wait();
                    if n == 0 {
                        stranded.fetch_add(rx.pending(), Ordering::SeqCst);
                    }
                    round.wait();
                }
            })
        })
        .collect();
    for h in senders {
        h.join().unwrap();
    }
    let stranded = stranded.load(Ordering::SeqCst);
    assert_eq!(
        stranded, 0,
        "{stranded} messages found stranded after a round"
    );
    assert_eq!(seen.lock().len() as u64, SENDERS * PER_SENDER);
    net.shutdown();
}

#[test]
fn shutdown_drops_the_runners() {
    let net: Network<u32> = Network::new(2, LatencyModel::Zero);
    let held = Arc::new(());
    let (h, ep) = (Arc::clone(&held), net.endpoint(NODE));
    net.attach(NODE, move || {
        let _ = (&h, ep.try_recv());
    });
    assert_eq!(Arc::strong_count(&held), 2, "the runner holds its captures");
    net.shutdown();
    assert_eq!(Arc::strong_count(&held), 1, "shutdown dropped the runner");
    // With no runner left, a send pushes into a closed inbox and stops.
    net.endpoint(SENDER).send(NODE, 1);
    assert_eq!(net.stats().dropped_closed, 1);
}
