//! Server-side contention monitoring (the Dynamic Module's server half).
//!
//! "We approximate the contention level of a shared object according to the
//! number of write operations occurred on that object since the last
//! observation. This information is maintained by quorum nodes. […] Moving
//! from one time window to the next one implies resetting the counters."
//!
//! Counters live per concrete object; queries aggregate per class because
//! that is the granularity at which a transaction *template* can act (a
//! template knows it will open "a District", not which one). The class
//! level is the **mean write count per written object** — a class with a
//! few heavily-written objects (District) scores high, a class with many
//! rarely-written objects (Customer) scores low, which is exactly the
//! hot-spot signal Steps 1–3 need.

use acn_txir::{IdMap, ObjectId};
use std::time::{Duration, Instant};

/// Window rotation configuration.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Length of one observation window. The paper uses 10 s windows on a
    /// real cluster; scaled-down simulations use 50–500 ms.
    pub window: Duration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window: Duration::from_millis(200),
        }
    }
}

/// Rotating per-object write *and abort* counters with per-class
/// aggregation — "run-time parameters such as objects' write and abort
/// ratios" (§V-B, Dynamic Module).
#[derive(Debug)]
pub struct ContentionWindow {
    cfg: WindowConfig,
    window_start: Instant,
    /// Writes per object in the window being filled.
    current: IdMap<ObjectId, u64>,
    /// Aborts attributed per object in the window being filled (the
    /// objects whose staleness or lock made a prepare vote no).
    current_aborts: IdMap<ObjectId, u64>,
    /// Per-class write aggregate of the last complete window:
    /// (sum, distinct).
    completed: IdMap<u16, (u64, u64)>,
    /// Per-class abort aggregate of the last complete window.
    completed_aborts: IdMap<u16, (u64, u64)>,
}

impl ContentionWindow {
    /// Start counting with the given window length.
    pub fn new(cfg: WindowConfig) -> Self {
        ContentionWindow {
            cfg,
            window_start: Instant::now(),
            current: IdMap::default(),
            current_aborts: IdMap::default(),
            completed: IdMap::default(),
            completed_aborts: IdMap::default(),
        }
    }

    /// Replace `agg` with the per-class (sum, distinct) of `objs`,
    /// emptying `objs`. Both maps keep their capacity, so a rotation
    /// allocates nothing once they have grown to the working set.
    fn aggregate(objs: &mut IdMap<ObjectId, u64>, agg: &mut IdMap<u16, (u64, u64)>) {
        agg.clear();
        for (obj, count) in objs.drain() {
            let e = agg.entry(obj.class.id).or_insert((0, 0));
            e.0 += count;
            e.1 += 1;
        }
    }

    /// Rotate if the current window has elapsed. Called internally by
    /// `record_write`/`class_level`, public for tests driving time manually.
    pub fn maybe_rotate(&mut self, now: Instant) {
        let elapsed = now.duration_since(self.window_start);
        if elapsed < self.cfg.window {
            return;
        }
        let win_ns = self.cfg.window.as_nanos().max(1);
        let windows = (elapsed.as_nanos() / win_ns).min(u32::MAX as u128) as u32;
        if windows >= 2 {
            // Two or more windows passed: whatever sits in `current` was
            // collected in a window that ended at least one full (silent)
            // window ago — it is not the "last complete window" any more.
            // Publishing it would hand consumers stale hot-spot data, so
            // drop it and report silence instead.
            self.current.clear();
            self.current_aborts.clear();
            self.completed.clear();
            self.completed_aborts.clear();
        } else {
            Self::aggregate(&mut self.current, &mut self.completed);
            Self::aggregate(&mut self.current_aborts, &mut self.completed_aborts);
        }
        // Advance on the window grid rather than jumping to `now`: a
        // rotation is triggered by the first event *after* a boundary, and
        // restarting the window at that event's timestamp would slip the
        // grid forward by the event's offset on every rotation. Sampled
        // spans and the driver's per-interval rows share one interval
        // clock only because the grid holds still.
        self.window_start += self.cfg.window * windows;
    }

    /// Record one committed write to `obj`.
    pub fn record_write(&mut self, obj: ObjectId, now: Instant) {
        self.maybe_rotate(now);
        *self.current.entry(obj).or_insert(0) += 1;
    }

    /// Record that `obj` caused a prepare rejection (stale version or lock
    /// conflict).
    pub fn record_abort(&mut self, obj: ObjectId, now: Instant) {
        self.maybe_rotate(now);
        *self.current_aborts.entry(obj).or_insert(0) += 1;
    }

    fn level_from(agg: &IdMap<u16, (u64, u64)>, class: u16) -> f64 {
        match agg.get(&class) {
            Some(&(sum, distinct)) if distinct > 0 => sum as f64 / distinct as f64,
            _ => 0.0,
        }
    }

    /// Contention level of a class from the last complete window: mean
    /// writes per written object, 0.0 for classes without writes.
    pub fn class_level(&mut self, class: u16, now: Instant) -> f64 {
        self.maybe_rotate(now);
        Self::level_from(&self.completed, class)
    }

    /// Abort ratio of a class from the last complete window: mean aborts
    /// per blamed object.
    pub fn class_abort_level(&mut self, class: u16, now: Instant) -> f64 {
        self.maybe_rotate(now);
        Self::level_from(&self.completed_aborts, class)
    }

    /// Write count of one object in the window being filled (tests and
    /// diagnostics; decision-making uses completed windows).
    pub fn current_object_count(&self, obj: ObjectId) -> u64 {
        self.current.get(&obj).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_txir::ObjClass;

    const BRANCH: ObjClass = ObjClass::new(0, "Branch");
    const ACCOUNT: ObjClass = ObjClass::new(1, "Account");

    fn win(ms: u64) -> ContentionWindow {
        ContentionWindow::new(WindowConfig {
            window: Duration::from_millis(ms),
        })
    }

    #[test]
    fn writes_accumulate_in_current_window() {
        let mut w = win(1000);
        let t0 = Instant::now();
        let obj = ObjectId::new(BRANCH, 1);
        w.record_write(obj, t0);
        w.record_write(obj, t0);
        assert_eq!(w.current_object_count(obj), 2);
        // Not yet rotated ⇒ completed window empty ⇒ level 0.
        assert_eq!(w.class_level(BRANCH.id, t0), 0.0);
    }

    #[test]
    fn rotation_publishes_class_means() {
        let mut w = win(100);
        let t0 = Instant::now();
        // Branch 1 written 6×, branch 2 written 2× ⇒ mean 4.
        for _ in 0..6 {
            w.record_write(ObjectId::new(BRANCH, 1), t0);
        }
        for _ in 0..2 {
            w.record_write(ObjectId::new(BRANCH, 2), t0);
        }
        // 4 distinct accounts written once each ⇒ mean 1.
        for i in 0..4 {
            w.record_write(ObjectId::new(ACCOUNT, i), t0);
        }
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(w.class_level(BRANCH.id, t1), 4.0);
        assert_eq!(w.class_level(ACCOUNT.id, t1), 1.0);
    }

    #[test]
    fn rotation_resets_counters() {
        let mut w = win(100);
        let t0 = Instant::now();
        let obj = ObjectId::new(BRANCH, 1);
        w.record_write(obj, t0);
        let t1 = t0 + Duration::from_millis(150);
        w.maybe_rotate(t1);
        assert_eq!(w.current_object_count(obj), 0, "current window reset");
        // Second rotation with an empty window clears the published level.
        let t2 = t1 + Duration::from_millis(150);
        assert_eq!(w.class_level(BRANCH.id, t2), 0.0);
    }

    #[test]
    fn unknown_class_reads_zero() {
        let mut w = win(100);
        assert_eq!(w.class_level(42, Instant::now()), 0.0);
        assert_eq!(w.class_abort_level(42, Instant::now()), 0.0);
    }

    #[test]
    fn abort_counters_aggregate_like_writes() {
        let mut w = win(100);
        let t0 = Instant::now();
        // Branch 1 blamed 4×, branch 2 blamed 2× ⇒ mean 3.
        for _ in 0..4 {
            w.record_abort(ObjectId::new(BRANCH, 1), t0);
        }
        for _ in 0..2 {
            w.record_abort(ObjectId::new(BRANCH, 2), t0);
        }
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(w.class_abort_level(BRANCH.id, t1), 3.0);
        // Writes stay independent.
        assert_eq!(w.class_level(BRANCH.id, t1), 0.0);
    }

    #[test]
    fn no_rotation_before_window_elapses() {
        let mut w = win(10_000);
        let t0 = Instant::now();
        w.record_write(ObjectId::new(BRANCH, 1), t0);
        w.maybe_rotate(t0 + Duration::from_millis(10));
        assert_eq!(w.current_object_count(ObjectId::new(BRANCH, 1)), 1);
    }

    #[test]
    fn idle_gap_does_not_leak_stale_window() {
        let mut w = win(100);
        let t0 = Instant::now();
        w.record_write(ObjectId::new(BRANCH, 1), t0);
        // A long idle gap: two rotations worth of silence.
        let t1 = t0 + Duration::from_millis(150);
        assert!(
            w.class_level(BRANCH.id, t1) > 0.0,
            "first rotation publishes"
        );
        let t2 = t1 + Duration::from_millis(500);
        assert_eq!(w.class_level(BRANCH.id, t2), 0.0, "silence clears it");

        // Regression: data pending in `current` across a multi-window gap
        // must be dropped at the next rotation, not published as the "last
        // complete window" — that window ended several silent windows ago.
        w.record_write(ObjectId::new(BRANCH, 1), t2);
        w.record_abort(ObjectId::new(BRANCH, 1), t2);
        let t3 = t2 + Duration::from_millis(500);
        assert_eq!(
            w.class_level(BRANCH.id, t3),
            0.0,
            "stale writes are not republished after a gap"
        );
        assert_eq!(
            w.class_abort_level(BRANCH.id, t3),
            0.0,
            "stale aborts are not republished after a gap"
        );
        assert_eq!(
            w.current_object_count(ObjectId::new(BRANCH, 1)),
            0,
            "stale current counters are discarded, not carried forward"
        );

        // Exactly one window late (elapsed in [window, 2·window) from the
        // grid-aligned window start) still publishes: the data genuinely is
        // the last complete window. t3 sits 50 ms into its grid window, so
        // 100 ms later is 150 ms past the boundary — one window late.
        w.record_write(ObjectId::new(BRANCH, 1), t3);
        let t4 = t3 + Duration::from_millis(100);
        assert!(w.class_level(BRANCH.id, t4) > 0.0, "on-time data publishes");
    }

    #[test]
    fn rotation_grid_does_not_drift_with_late_events() {
        let mut w = win(100);
        let t0 = Instant::now();
        w.record_write(ObjectId::new(BRANCH, 1), t0);
        // The first event after the boundary arrives 90 ms late. The
        // rotation must advance the grid to the boundary (t0 + 100 ms),
        // not restart the window at the event's own timestamp.
        let t1 = t0 + Duration::from_millis(190);
        assert!(w.class_level(BRANCH.id, t1) > 0.0, "first window publishes");
        // 150 ms into the grid window that began at t0 + 100 ms: this must
        // rotate again (publishing an empty window). Under drift — window
        // restarted at t0 + 190 ms — we would still be mid-window here and
        // the stale level would survive.
        let t2 = t0 + Duration::from_millis(250);
        assert_eq!(w.class_level(BRANCH.id, t2), 0.0, "grid stays aligned");
    }
}
