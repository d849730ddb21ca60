//! Per-node inbox: a delay queue ordered by delivery instant.
//!
//! An inbox is drained one of two ways. A client's thread receives from it
//! (`recv_deadline`, which pops). A server's inbox is drained under the
//! server's own lock by whichever thread holds it: the server thread after
//! `wait_ready` (which parks without popping) or, for a message with zero
//! delay, the sender's thread (see [`crate::Network::attach`]). Either way
//! receives happen under one lock per node, so the wake protocol below
//! still sees at most one parked thread.

use crate::envelope::Envelope;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Why a receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message became deliverable before the deadline.
    Timeout,
    /// The network was shut down (all endpoints dropped / closed).
    Closed,
}

struct State<M> {
    heap: BinaryHeap<Reverse<Envelope<M>>>,
    closed: bool,
    /// The instant the receiver is parked toward — `min(head.deliver_at,
    /// deadline)` — while it sleeps on the condvar; `None` while it runs,
    /// and from the moment a push has decided to wake it.
    parked_until: Option<Instant>,
    /// Set by [`Inbox::kick`] until the next wait consumes it.
    kicked: bool,
}

/// A node's inbox. Messages become visible only once their `deliver_at`
/// instant has passed, which is how network latency is realised: the
/// receiving thread sleeps on a condvar until the earliest message matures.
///
/// Wake protocol (one parked thread per inbox, see
/// [`crate::Network::endpoint`]): the receiver publishes the instant it is
/// parked toward, and a push signals it only if that instant is later than
/// the new message's `deliver_at` — otherwise the receiver's own timer
/// already fires in time, or it is running and will look at the heap
/// before it parks again. The push claims the wake under the lock (so a
/// second push does not signal again) and notifies after dropping the
/// guard, so the woken thread never blocks on the lock its waker still
/// holds. Each message therefore costs its receiver at most one wake, and
/// a push to a busy receiver costs no syscall. A push whose sender drains
/// the inbox itself (`wake == false`) claims nothing: the parked thread
/// sleeps on, and [`Inbox::kick`] wakes it when the sender hands work back.
pub(crate) struct Inbox<M> {
    state: Mutex<State<M>>,
    cond: Condvar,
}

impl<M> Inbox<M> {
    pub(crate) fn new() -> Self {
        Inbox {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                closed: false,
                parked_until: None,
                kicked: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueue a message, waking a parked receiver that would otherwise
    /// sleep past it — unless `wake` is `false`, because the caller drains
    /// the inbox itself. Returns `false` when the inbox is closed (the
    /// message vanishes, like traffic to a dead host).
    pub(crate) fn push(&self, env: Envelope<M>, wake: bool) -> bool {
        let at = env.deliver_at;
        let wake = {
            let mut st = self.state.lock();
            if st.closed {
                return false;
            }
            st.heap.push(Reverse(env));
            wake && st.parked_until.take_if(|until| *until > at).is_some()
        };
        if wake {
            self.cond.notify_one();
        }
        true
    }

    /// Make the parked thread's current (or next) wait return at once,
    /// whether or not a message is mature.
    pub(crate) fn kick(&self) {
        let wake = {
            let mut st = self.state.lock();
            st.kicked = true;
            st.parked_until.take().is_some()
        };
        if wake {
            self.cond.notify_one();
        }
    }

    /// Is a message ready to be received?
    pub(crate) fn has_mature(&self) -> bool {
        let st = self.state.lock();
        matches!(st.heap.peek(), Some(Reverse(e)) if e.deliver_at <= Instant::now())
    }

    pub(crate) fn close(&self) {
        {
            let mut st = self.state.lock();
            st.closed = true;
            st.heap.clear();
        }
        self.cond.notify_all();
    }

    /// Drop all queued messages without closing (used by fault injection so
    /// a "crashed" node loses its in-flight traffic).
    pub(crate) fn drain(&self) -> usize {
        let mut st = self.state.lock();
        let n = st.heap.len();
        st.heap.clear();
        n
    }

    pub(crate) fn len(&self) -> usize {
        self.state.lock().heap.len()
    }

    /// Block until a message matures or `deadline` passes.
    pub(crate) fn recv_deadline(&self, deadline: Instant) -> Result<Envelope<M>, RecvError> {
        let mut st = self.state.lock();
        loop {
            self.wait(&mut st, deadline)?;
            if let Some(env) = pop_mature(&mut st) {
                return Ok(env);
            }
        }
    }

    /// Block until a message matures, [`Inbox::kick`] is called or
    /// `deadline` passes, leaving the message queued for whoever drains
    /// the inbox. `Err(Timeout)` only when none of the first two happened.
    pub(crate) fn wait_ready(&self, deadline: Instant) -> Result<(), RecvError> {
        self.wait(&mut self.state.lock(), deadline)
    }

    /// The one place a thread parks on the inbox: `Ok` once the head is
    /// mature or a kick is pending (consuming it).
    fn wait(&self, st: &mut MutexGuard<'_, State<M>>, deadline: Instant) -> Result<(), RecvError> {
        make_timers_precise();
        loop {
            if st.closed {
                return Err(RecvError::Closed);
            }
            let now = Instant::now();
            let wake = match st.heap.peek() {
                Some(Reverse(e)) if e.deliver_at <= now => return Ok(()),
                Some(Reverse(e)) => e.deliver_at.min(deadline),
                None => deadline,
            };
            if std::mem::take(&mut st.kicked) {
                return Ok(());
            }
            if wake <= now {
                return Err(RecvError::Timeout);
            }
            debug_assert!(
                st.parked_until.is_none(),
                "second parked thread on one inbox"
            );
            st.parked_until = Some(wake);
            self.cond.wait_until(st, wake);
            st.parked_until = None;
        }
    }

    /// Non-blocking receive of a mature message. It counts as a receive
    /// for the timer slack too: a client whose replies are always queued
    /// by the time it looks never parks, yet still sleeps on backoff.
    pub(crate) fn try_recv(&self) -> Option<Envelope<M>> {
        make_timers_precise();
        pop_mature(&mut self.state.lock())
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        self.recv_deadline(Instant::now() + timeout)
    }
}

/// Pop the head if it is mature.
fn pop_mature<M>(st: &mut State<M>) -> Option<Envelope<M>> {
    let Reverse(head) = st.heap.peek()?;
    if head.deliver_at > Instant::now() {
        return None;
    }
    st.heap.pop().map(|Reverse(env)| env)
}

/// A timed wait on Linux — the futex behind the condvar, the `nanosleep`
/// behind `thread::sleep` — may fire up to the thread's *timer slack* late,
/// 50 µs by default, so the kernel can batch wake-ups. That is a third of a
/// modelled LAN hop, so the first receive or wait on a thread sets the
/// slack to 1 ns (0 would mean "restore the default"). Every timed wait of
/// the system runs on a thread that receives: servers, clients, and the
/// clients' backoff sleeps. std has no call for it, hence the one foreign
/// function; elsewhere this is a no-op.
fn make_timers_precise() {
    #[cfg(target_os = "linux")]
    {
        use std::cell::Cell;
        use std::ffi::{c_int, c_ulong};

        // glibc and musl both export it; std already links the C library.
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        const ONE_NS: c_ulong = 1;
        thread_local! {
            static PRECISE: Cell<bool> = const { Cell::new(false) };
        }
        if !PRECISE.replace(true) {
            // SAFETY: `PR_SET_TIMERSLACK` reads one integer argument, passed
            // as the `unsigned long` the kernel expects, and changes only
            // the calling thread's timer slack. A failure leaves the default
            // slack, which is merely less precise.
            unsafe { prctl(PR_SET_TIMERSLACK, ONE_NS) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Payload;
    use crate::node::NodeId;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    fn env(payload: u32, delay: Duration, seq: u64) -> Envelope<u32> {
        let now = Instant::now();
        Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: now,
            deliver_at: now + delay,
            seq,
            payload: Payload::Owned(payload),
        }
    }

    fn val(p: Payload<u32>) -> u32 {
        p.into_inner()
    }

    #[test]
    fn immediate_message_is_received() {
        let inbox = Inbox::new();
        inbox.push(env(42, Duration::ZERO, 0), true);
        let got = inbox.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(val(got.payload), 42);
    }

    #[test]
    fn empty_inbox_times_out() {
        let inbox: Inbox<u32> = Inbox::new();
        let err = inbox.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn delayed_message_waits_for_maturity() {
        let inbox = Inbox::new();
        let delay = Duration::from_millis(20);
        inbox.push(env(1, delay, 0), true);
        assert!(inbox.try_recv().is_none(), "message must not be early");
        let start = Instant::now();
        let got = inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(val(got.payload), 1);
        assert!(
            start.elapsed() >= delay - Duration::from_millis(1),
            "delivered after only {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn shorter_latency_overtakes() {
        let inbox = Inbox::new();
        inbox.push(env(1, Duration::from_millis(50), 0), true);
        inbox.push(env(2, Duration::from_millis(5), 1), true);
        let first = inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(val(first.payload), 2, "low-latency message should overtake");
        let second = inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(val(second.payload), 1);
    }

    #[test]
    fn equal_instants_delivered_in_send_order() {
        let inbox = Inbox::new();
        let at = Instant::now();
        for seq in 0..10u64 {
            inbox.push(
                Envelope {
                    src: NodeId(0),
                    dst: NodeId(1),
                    sent_at: at,
                    deliver_at: at,
                    seq,
                    payload: Payload::Owned(seq as u32),
                },
                true,
            );
        }
        for expect in 0..10u32 {
            let got = inbox.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(val(got.payload), expect);
        }
    }

    /// Start a receiver on its own thread and return once it is parked;
    /// the thread yields what `recv_timeout(timeout)` returned and how long
    /// the call took.
    fn parked_receiver(
        inbox: &Arc<Inbox<u32>>,
        timeout: Duration,
    ) -> JoinHandle<(Result<u32, RecvError>, Duration)> {
        let i2 = Arc::clone(inbox);
        let h = std::thread::spawn(move || {
            let start = Instant::now();
            let got = i2.recv_timeout(timeout).map(|e| val(e.payload));
            (got, start.elapsed())
        });
        while inbox.state.lock().parked_until.is_none() {
            std::thread::yield_now();
        }
        h
    }

    #[test]
    fn close_unblocks_receiver() {
        // Parked toward its deadline, and toward a pending message's
        // instant: `close` wakes it either way.
        for pending in [None, Some(Duration::from_secs(5))] {
            let inbox = Arc::new(Inbox::new());
            if let Some(delay) = pending {
                inbox.push(env(1, delay, 0), true);
            }
            let h = parked_receiver(&inbox, Duration::from_secs(10));
            inbox.close();
            let (got, took) = h.join().unwrap();
            assert_eq!(got, Err(RecvError::Closed));
            assert!(took < Duration::from_secs(1), "closed after {took:?}");
        }
    }

    #[test]
    fn a_push_due_before_the_parked_instant_wakes_the_receiver() {
        let inbox = Arc::new(Inbox::new());
        inbox.push(env(1, Duration::from_secs(2), 0), true);
        let h = parked_receiver(&inbox, Duration::from_secs(5));
        inbox.push(env(2, Duration::from_millis(10), 1), true);
        let (got, took) = h.join().unwrap();
        assert_eq!(got, Ok(2), "the earlier message overtakes");
        assert!(took < Duration::from_secs(1), "woken only after {took:?}");
    }

    #[test]
    fn a_zero_latency_push_wakes_a_receiver_parked_on_a_long_deadline() {
        let inbox = Arc::new(Inbox::new());
        let h = parked_receiver(&inbox, Duration::from_secs(10));
        inbox.push(env(7, Duration::ZERO, 0), true);
        let (got, took) = h.join().unwrap();
        assert_eq!(got, Ok(7));
        assert!(took < Duration::from_secs(1), "woken only after {took:?}");
    }

    #[test]
    fn wait_ready_leaves_the_message_queued_and_a_kick_ends_it_early() {
        let inbox = Arc::new(Inbox::new());
        inbox.push(env(3, Duration::ZERO, 0), true);
        assert!(inbox.has_mature());
        let soon = Instant::now() + Duration::from_secs(10);
        assert_eq!(inbox.wait_ready(soon), Ok(()));
        assert_eq!(inbox.len(), 1, "waiting pops nothing");
        assert_eq!(inbox.try_recv().map(|e| val(e.payload)), Some(3));
        assert!(!inbox.has_mature());

        let i2 = Arc::clone(&inbox);
        let h = std::thread::spawn(move || {
            let start = Instant::now();
            (
                i2.wait_ready(start + Duration::from_secs(10)),
                start.elapsed(),
            )
        });
        while inbox.state.lock().parked_until.is_none() {
            std::thread::yield_now();
        }
        inbox.kick();
        let (got, took) = h.join().unwrap();
        assert_eq!(got, Ok(()));
        assert!(took < Duration::from_secs(1), "kicked only after {took:?}");
        // A kick while nobody waits is kept for the next wait.
        inbox.kick();
        assert_eq!(
            inbox.wait_ready(Instant::now() + Duration::from_secs(10)),
            Ok(())
        );
        let past = Instant::now();
        assert_eq!(inbox.wait_ready(past), Err(RecvError::Timeout));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_first_receive_makes_the_threads_timers_precise() {
        use std::ffi::c_int;
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_GET_TIMERSLACK: c_int = 30;
        let slack = std::thread::spawn(|| {
            let inbox: Inbox<u32> = Inbox::new();
            assert_eq!(
                inbox.recv_timeout(Duration::from_millis(1)).unwrap_err(),
                RecvError::Timeout
            );
            // SAFETY: `PR_GET_TIMERSLACK` takes no further argument and only
            // reads the calling thread's timer slack.
            unsafe { prctl(PR_GET_TIMERSLACK) }
        });
        assert_eq!(slack.join().unwrap(), 1, "timer slack in ns");
    }

    #[test]
    fn push_after_close_is_dropped() {
        let inbox = Inbox::new();
        inbox.close();
        inbox.push(env(1, Duration::ZERO, 0), true);
        assert_eq!(inbox.len(), 0);
    }

    #[test]
    fn drain_discards_pending() {
        let inbox = Inbox::new();
        inbox.push(env(1, Duration::ZERO, 0), true);
        inbox.push(env(2, Duration::ZERO, 1), true);
        assert_eq!(inbox.drain(), 2);
        assert!(inbox.try_recv().is_none());
    }
}
