//! A delay queue ordered by due instant, with one park/wake protocol.
//!
//! Two kinds of queue use it. A node's inbox holds [`Envelope`]s: a
//! client's thread receives from its own (`recv_deadline`, which pops),
//! while a server's inbox is drained under the server's own lock by
//! whichever thread delivers to it (see [`crate::Network::attach`]) and
//! nobody parks on it. The network's timer queue holds wakes
//! `(at, seq, node)`, and its one thread parks on it like a client.
//!
//! An item due when it is pushed — a zero-delay envelope — skips the heap
//! for a FIFO *ready lane*. Everything in the lane is mature, so a receive
//! reads the clock only when the lane is empty and the heap is not: at zero
//! latency a hop takes no clock read inside the queue at all.

use crate::envelope::Envelope;
use crate::node::NodeId;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Why a receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message became deliverable before the deadline.
    Timeout,
    /// The network was shut down (all endpoints dropped / closed).
    Closed,
}

/// A queued item that becomes visible at an instant.
pub(crate) trait Timed: Ord {
    fn due(&self) -> Instant;
}

impl<M> Timed for Envelope<M> {
    fn due(&self) -> Instant {
        self.deliver_at
    }
}

/// A wake on the timer queue: `(at, seq, node)`.
impl Timed for (Instant, u64, NodeId) {
    fn due(&self) -> Instant {
        self.0
    }
}

struct State<T> {
    heap: BinaryHeap<Reverse<T>>,
    /// Items that were due when pushed, in push order.
    ready: VecDeque<T>,
    closed: bool,
    /// The instant the receiver is parked toward — `min(head.due,
    /// deadline)` — while it sleeps on the condvar; `None` while it runs,
    /// and from the moment a push has decided to wake it.
    parked_until: Option<Instant>,
}

/// A queue whose items become visible only once their due instant has
/// passed, which is how network latency is realised: a receiving thread
/// sleeps on a condvar until the earliest item matures.
///
/// Wake protocol (at most one parked thread per queue, see
/// [`crate::Network::endpoint`]): the receiver publishes the instant it is
/// parked toward, and a push signals it only if that instant is later than
/// the new item's due instant — otherwise the receiver's own timer
/// already fires in time, or it is running and will look at the heap
/// before it parks again. The push claims the wake under the lock (so a
/// second push does not signal again) and notifies after dropping the
/// guard, so the woken thread never blocks on the lock its waker still
/// holds. Each item therefore costs its receiver at most one wake, and a
/// push to a busy receiver — or to a server inbox, where nobody parks —
/// costs no syscall.
pub(crate) struct Inbox<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
}

impl<T: Timed> Inbox<T> {
    pub(crate) fn new() -> Self {
        Inbox {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                ready: VecDeque::new(),
                closed: false,
                parked_until: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueue an item, waking a parked receiver that would otherwise
    /// sleep past it. `ready` says the item is due already (its due instant
    /// is not after the caller's clock): it joins the ready lane. Returns
    /// `false` when the queue is closed (the item vanishes, like traffic to
    /// a dead host).
    pub(crate) fn push(&self, item: T, ready: bool) -> bool {
        let at = item.due();
        let wake = {
            let mut st = self.state.lock();
            if st.closed {
                return false;
            }
            if ready {
                st.ready.push_back(item);
            } else {
                st.heap.push(Reverse(item));
            }
            st.parked_until
                .take_if(|until| ready || *until > at)
                .is_some()
        };
        if wake {
            self.cond.notify_one();
        }
        true
    }

    /// The due instant of the earliest queued item, mature or not: the
    /// heap's head or the ready lane's, whichever is earlier.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        let st = self.state.lock();
        let lane = st.ready.front().map(T::due);
        lane.into_iter()
            .chain(st.heap.peek().map(|Reverse(e)| e.due()))
            .min()
    }

    /// Is an item ready to be received? Reads the clock only when the
    /// ready lane is empty and the heap is not.
    pub(crate) fn has_mature(&self) -> bool {
        let st = self.state.lock();
        !st.ready.is_empty()
            || st
                .heap
                .peek()
                .is_some_and(|Reverse(e)| e.due() <= Instant::now())
    }

    pub(crate) fn close(&self) {
        {
            let mut st = self.state.lock();
            st.closed = true;
            st.heap.clear();
            st.ready.clear();
        }
        self.cond.notify_all();
    }

    /// Keep only the queued items `keep` accepts (fault injection passes
    /// `|_| false`, so a "crashed" node loses its in-flight traffic).
    pub(crate) fn retain(&self, mut keep: impl FnMut(&T) -> bool) {
        let mut st = self.state.lock();
        st.heap.retain(|Reverse(e)| keep(e));
        st.ready.retain(|e| keep(e));
    }

    pub(crate) fn len(&self) -> usize {
        let st = self.state.lock();
        st.heap.len() + st.ready.len()
    }

    /// Block until an item matures or `deadline` passes. The one place a
    /// thread parks on the queue.
    pub(crate) fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvError> {
        make_timers_precise();
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return Err(RecvError::Closed);
            }
            let mut now = None;
            if let Some(item) = pop_mature(&mut st, &mut now) {
                return Ok(item);
            }
            let now = now.unwrap_or_else(Instant::now);
            let wake = st
                .heap
                .peek()
                .map_or(deadline, |Reverse(e)| e.due().min(deadline));
            if wake <= now {
                return Err(RecvError::Timeout);
            }
            debug_assert!(
                st.parked_until.is_none(),
                "second parked thread on one inbox"
            );
            st.parked_until = Some(wake);
            self.cond.wait_until(&mut st, wake);
            st.parked_until = None;
        }
    }

    /// Non-blocking receive of a mature item. It counts as a receive for
    /// the timer slack too: a client whose replies are always queued by
    /// the time it looks never parks, yet still sleeps on backoff.
    pub(crate) fn try_recv(&self) -> Option<T> {
        make_timers_precise();
        pop_mature(&mut self.state.lock(), &mut None)
    }
}

/// Pop the earliest mature item: the heap's head if it orders before the
/// ready lane's and is mature, else the lane's head. `now` is read from
/// the clock — and kept for the caller — only when the lane is empty and
/// the heap is not. A heap head that orders before a lane item is mature
/// without a look at the clock: it is due no later than that item, which
/// was due when it was pushed.
fn pop_mature<T: Timed>(st: &mut State<T>, now: &mut Option<Instant>) -> Option<T> {
    let heap_first = match (st.heap.peek(), st.ready.front()) {
        (Some(Reverse(head)), Some(first)) => head < first,
        (Some(Reverse(head)), None) => head.due() <= *now.get_or_insert_with(Instant::now),
        (None, _) => false,
    };
    if heap_first {
        st.heap.pop().map(|Reverse(item)| item)
    } else {
        st.ready.pop_front()
    }
}

/// A timed wait on Linux — the futex behind the condvar, the `nanosleep`
/// behind `thread::sleep` — may fire up to the thread's *timer slack* late,
/// 50 µs by default, so the kernel can batch wake-ups. That is a third of a
/// modelled LAN hop, so the first receive or wait on a thread sets the
/// slack to 1 ns (0 would mean "restore the default"). Every timed wait of
/// the system runs on a thread that receives: the network's timer thread,
/// clients, and the clients' backoff sleeps. std has no call for it, hence the one foreign
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
    use std::time::Duration;

    impl<T: Timed> Inbox<T> {
        fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
            self.recv_deadline(Instant::now() + timeout)
        }
    }

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

    /// Push as the network does: a zero-delay envelope joins the ready
    /// lane.
    fn push_env(inbox: &Inbox<Envelope<u32>>, e: Envelope<u32>) -> bool {
        let ready = e.deliver_at == e.sent_at;
        inbox.push(e, ready)
    }

    fn val(p: Payload<u32>) -> u32 {
        p.into_inner()
    }

    #[test]
    fn immediate_message_is_received() {
        let inbox = Inbox::new();
        push_env(&inbox, env(42, Duration::ZERO, 0));
        let got = inbox.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(val(got.payload), 42);
    }

    #[test]
    fn empty_inbox_times_out() {
        let inbox: Inbox<Envelope<u32>> = Inbox::new();
        let err = inbox.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn delayed_message_waits_for_maturity() {
        let inbox = Inbox::new();
        let delay = Duration::from_millis(20);
        push_env(&inbox, env(1, delay, 0));
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
        push_env(&inbox, env(1, Duration::from_millis(50), 0));
        push_env(&inbox, env(2, Duration::from_millis(5), 1));
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
            push_env(
                &inbox,
                Envelope {
                    src: NodeId(0),
                    dst: NodeId(1),
                    sent_at: at,
                    deliver_at: at,
                    seq,
                    payload: Payload::Owned(seq as u32),
                },
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
        inbox: &Arc<Inbox<Envelope<u32>>>,
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
                push_env(&inbox, env(1, delay, 0));
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
        push_env(&inbox, env(1, Duration::from_secs(2), 0));
        let h = parked_receiver(&inbox, Duration::from_secs(5));
        push_env(&inbox, env(2, Duration::from_millis(10), 1));
        let (got, took) = h.join().unwrap();
        assert_eq!(got, Ok(2), "the earlier message overtakes");
        assert!(took < Duration::from_secs(1), "woken only after {took:?}");
    }

    #[test]
    fn a_zero_latency_push_wakes_a_receiver_parked_on_a_long_deadline() {
        let inbox = Arc::new(Inbox::new());
        let h = parked_receiver(&inbox, Duration::from_secs(10));
        push_env(&inbox, env(7, Duration::ZERO, 0));
        let (got, took) = h.join().unwrap();
        assert_eq!(got, Ok(7));
        assert!(took < Duration::from_secs(1), "woken only after {took:?}");
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
            let inbox: Inbox<Envelope<u32>> = Inbox::new();
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
        push_env(&inbox, env(1, Duration::ZERO, 0));
        assert_eq!(inbox.len(), 0);
    }

    #[test]
    fn retain_keeps_only_what_it_is_told() {
        let inbox = Inbox::new();
        for seq in 0..4 {
            push_env(&inbox, env(seq as u32, Duration::ZERO, seq));
        }
        inbox.retain(|e| e.seq % 2 == 1);
        assert_eq!(inbox.len(), 2);
        assert!(inbox.next_due().is_some());
        inbox.retain(|_| false);
        assert!(inbox.try_recv().is_none());
        assert_eq!(inbox.next_due(), None);
    }

    #[test]
    fn a_matured_delayed_envelope_and_later_zero_delay_ones_pop_in_order() {
        let inbox = Inbox::new();
        // Delayed, then mature before two zero-delay envelopes are pushed:
        // it is due first, so it pops first although the lane is not empty.
        push_env(&inbox, env(0, Duration::from_millis(2), 0));
        std::thread::sleep(Duration::from_millis(5));
        push_env(&inbox, env(1, Duration::ZERO, 1));
        push_env(&inbox, env(2, Duration::ZERO, 2));
        // A zero-delay envelope is due before a delayed one pushed after it.
        push_env(&inbox, env(3, Duration::from_millis(2), 3));
        push_env(&inbox, env(4, Duration::ZERO, 4));
        // Not due for a minute: never popped here.
        push_env(&inbox, env(5, Duration::from_secs(60), 5));
        let mut got = Vec::new();
        while got.len() < 5 {
            got.extend(inbox.try_recv().map(|e| (e.deliver_at, e.seq)));
        }
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted, "popped out of (deliver_at, seq) order");
        let seqs: Vec<u64> = got.iter().map(|&(_, seq)| seq).collect();
        assert_eq!(seqs, [0, 1, 2, 4, 3]);
        assert!(inbox.try_recv().is_none(), "the last one is not due");
        assert_eq!(inbox.len(), 1);
    }

    #[test]
    fn retain_close_len_and_next_due_see_the_ready_lane() {
        let inbox = Inbox::new();
        let ready = env(1, Duration::ZERO, 0);
        let ready_at = ready.deliver_at;
        push_env(&inbox, ready);
        push_env(&inbox, env(2, Duration::from_secs(60), 1));
        assert_eq!(inbox.len(), 2);
        assert_eq!(
            inbox.next_due(),
            Some(ready_at),
            "the lane's head is due first"
        );
        assert!(inbox.has_mature());
        inbox.retain(|e| e.seq == 0);
        assert_eq!(inbox.len(), 1, "retain drops from the heap");
        assert_eq!(inbox.next_due(), Some(ready_at));
        inbox.retain(|_| false);
        assert_eq!(inbox.len(), 0, "retain drops from the lane");
        assert_eq!(inbox.next_due(), None);
        assert!(!inbox.has_mature());
        assert!(inbox.try_recv().is_none());
        push_env(&inbox, env(3, Duration::ZERO, 2));
        assert_eq!(inbox.len(), 1);
        inbox.close();
        assert_eq!(inbox.len(), 0, "close empties the lane");
        assert!(inbox.try_recv().is_none());
    }

    #[test]
    fn timer_wakes_pop_in_instant_order() {
        let inbox = Inbox::new();
        let now = Instant::now();
        inbox.push((now + Duration::from_millis(3), 0, NodeId(2)), false);
        inbox.push((now, 1, NodeId(1)), false);
        assert_eq!(inbox.next_due(), Some(now));
        assert_eq!(inbox.try_recv(), Some((now, 1, NodeId(1))));
        assert!(inbox.try_recv().is_none(), "the second wake is not due");
        let (at, _, node) = inbox.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(
            (node, at.duration_since(now)),
            (NodeId(2), Duration::from_millis(3))
        );
    }
}
