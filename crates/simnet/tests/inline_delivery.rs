//! Inline delivery: a zero-delay message to a node with a runner
//! ([`Network::attach`]) is delivered by calling the runner on the sender's
//! thread. These tests pin who runs it, that the node's parked thread is
//! left alone, that delay keeps the old path, that a lock-sharing runner
//! loses no message however the senders race, and that shutdown breaks the
//! runner's reference cycle.

use acn_simnet::{Endpoint, LatencyModel, Network, NodeId, RecvError};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const SENDER: NodeId = NodeId(0);
const NODE: NodeId = NodeId(1);

/// Attach a runner to `NODE` that only counts its calls.
fn counting_runner(net: &Network<u32>) -> Arc<AtomicUsize> {
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&calls);
    net.attach(NODE, move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    calls
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
fn a_thread_parked_in_wait_ready_is_not_woken() {
    let net: Network<u32> = Network::new(2, LatencyModel::Zero);
    let calls = counting_runner(&net);
    let ep = net.endpoint(NODE);
    let wait = Duration::from_millis(200);
    let parked = std::thread::spawn(move || {
        let start = Instant::now();
        let got = ep.wait_ready(start + wait);
        (got, start.elapsed(), ep.try_recv())
    });
    std::thread::sleep(Duration::from_millis(50));
    net.endpoint(SENDER).send(NODE, 5);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    // The runner left the message queued, so a woken thread would have
    // found it at once; this one slept to its deadline and found it then.
    let (got, took, queued) = parked.join().unwrap();
    assert_eq!(got, Ok(()));
    assert!(took >= wait, "woken after {took:?}");
    assert_eq!(queued, Some((SENDER, 5)));

    // A kick is how a runner hands work back: it does wake the thread.
    let ep = net.endpoint(NODE);
    let parked = std::thread::spawn(move || {
        let start = Instant::now();
        (
            ep.wait_ready(start + Duration::from_secs(10)),
            start.elapsed(),
        )
    });
    std::thread::sleep(Duration::from_millis(50));
    net.endpoint(NODE).kick();
    let (got, took) = parked.join().unwrap();
    assert_eq!(got, Ok(()));
    assert!(took < Duration::from_secs(5), "kicked after {took:?}");
    net.shutdown();
}

#[test]
fn a_delayed_message_never_runs_inline() {
    let delay = Duration::from_millis(5);
    let net: Network<u32> = Network::new(2, LatencyModel::Constant(delay));
    let calls = counting_runner(&net);
    let rx = net.endpoint(NODE);
    let start = Instant::now();
    net.endpoint(SENDER).send(NODE, 9);
    assert!(!rx.has_mature(), "not due yet");
    // The node's own thread receives it at `deliver_at`.
    assert_eq!(
        rx.wait_ready(start + Duration::from_secs(1)),
        Ok(()),
        "the push woke the waiter at the message's instant"
    );
    assert!(start.elapsed() >= delay);
    let (_, v, meta) = rx.try_recv_meta().expect("mature");
    assert_eq!(v, 9);
    assert_eq!(meta.deliver_at - meta.sent_at, delay);
    assert_eq!(calls.load(Ordering::SeqCst), 0, "delay keeps the old path");
    assert_eq!(
        rx.wait_ready(Instant::now() + Duration::from_millis(1)),
        Err(RecvError::Timeout)
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
