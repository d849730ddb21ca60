//! The one overwrite-oldest ring behind [`crate::Tracer`] and
//! [`crate::SpanCollector`].

use crate::registry::ThreadTraceRow;

/// A fixed-capacity ring: memory is bounded by the capacity; once full,
/// the oldest item is overwritten and counted as dropped, so a long run
/// keeps the *tail* of what it recorded.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    /// Ring size in items (`Vec::capacity` may over-allocate, so the
    /// logical bound is tracked separately).
    cap: usize,
    /// Next write position (wraps at `cap`).
    head: usize,
    recorded: u64,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` items (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Record one item: O(1), no allocation after the ring first fills.
    pub(crate) fn push(&mut self, item: T) {
        self.recorded += 1;
        if self.buf.len() < self.cap {
            self.buf.push(item);
            self.head = self.buf.len() % self.cap;
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Take the retained items out, oldest first. The counters keep
    /// running; the ring refills from empty.
    pub(crate) fn take(&mut self) -> Vec<T> {
        let mut out = std::mem::take(&mut self.buf);
        if out.len() == self.cap {
            out.rotate_left(self.head);
        }
        self.head = 0;
        out
    }

    /// This ring's completeness row under thread index `thread`: items
    /// ever recorded (dropped ones included), items overwritten, capacity.
    pub(crate) fn row(&self, thread: u64) -> ThreadTraceRow {
        ThreadTraceRow {
            thread,
            recorded: self.recorded,
            dropped: self.dropped,
            capacity: self.cap as u64,
        }
    }
}
