//! Seeded, deterministic message-level fault injection.
//!
//! A [`FaultPlan`] describes an adversarial schedule in two parts:
//!
//! * **Per-message chaos rules** ([`ChaosRule`]): for messages matching a
//!   (src, dst, kind) filter, drop / duplicate / delay them with fixed
//!   probabilities. The fate of the *n*-th matching message on a link is a
//!   pure hash of `(seed, rule, src, dst, kind, n)` — no global RNG state —
//!   so the same traffic pattern meets the same fates on every run.
//! * **Timed fault events** ([`TimedFault`]): crashes, recoveries, link
//!   failures and quorum-splitting partitions at fixed offsets from the
//!   start of a run, applied by [`crate::Network::run_fault_schedule`].
//!
//! Plans compare with `==`, which is how the chaos suite asserts that one
//! seed always expands to one schedule. [`FaultPlan::generate`] derives a
//! complete plan (rule probabilities from a profile, a randomly placed
//! partition and crash window) from a single `u64` seed.
//!
//! The simnet layer does not know the DTM protocol, so message kinds are an
//! opaque [`MsgKind`] byte supplied by a classifier function installed with
//! [`crate::Network::set_chaos`]. Corruption is deliberately not modelled:
//! the paper's fault model is fail-stop plus an unreliable network, not
//! Byzantine.

use crate::node::NodeId;
use rand::{Rng, SeedableRng};
use std::iter::repeat_n;
use std::time::Duration;

/// Protocol-assigned message classifier value. `MsgKind::MAX` in a rule's
/// filter means "any kind".
pub type MsgKind = u8;

/// Wildcard kind: matches every message.
pub const ANY_KIND: MsgKind = MsgKind::MAX;

/// Per-link chaos probabilities. All independent draws per message: a
/// message can be both duplicated and delayed, but a dropped message is
/// simply gone (drop is checked first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRule {
    /// Only messages from this node match (`None` = any sender).
    pub src: Option<NodeId>,
    /// Only messages to this node match (`None` = any destination).
    pub dst: Option<NodeId>,
    /// Only messages of this kind match ([`ANY_KIND`] = any kind).
    pub kind: MsgKind,
    /// Probability the message is silently dropped.
    pub drop_p: f64,
    /// Probability the message is delivered twice (second copy takes its
    /// own latency sample, so the copies may be reordered).
    pub dup_p: f64,
    /// Probability the message is delayed by `extra_delay` (reordering it
    /// behind later traffic).
    pub delay_p: f64,
    /// The extra delay applied when the delay draw fires.
    pub extra_delay: Duration,
}

impl ChaosRule {
    /// A rule matching every message on every link.
    pub fn all(drop_p: f64, dup_p: f64, delay_p: f64, extra_delay: Duration) -> Self {
        ChaosRule {
            src: None,
            dst: None,
            kind: ANY_KIND,
            drop_p,
            dup_p,
            delay_p,
            extra_delay,
        }
    }

    /// A rule matching one message kind on every link.
    pub fn for_kind(
        kind: MsgKind,
        drop_p: f64,
        dup_p: f64,
        delay_p: f64,
        extra_delay: Duration,
    ) -> Self {
        ChaosRule {
            kind,
            ..Self::all(drop_p, dup_p, delay_p, extra_delay)
        }
    }

    fn matches(&self, src: NodeId, dst: NodeId, kind: MsgKind) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && (self.kind == ANY_KIND || self.kind == kind)
    }
}

/// What the chaos layer decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosDecision {
    /// Deliver normally.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver twice (each copy with its own latency sample).
    Duplicate,
    /// Deliver once, with this much extra latency.
    Delay(Duration),
    /// Deliver twice, the second copy with this much extra latency.
    DuplicateDelayed(Duration),
}

/// A node- or link-level fault applied at a fixed offset into a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail-stop a node (drains its inbox; see [`crate::Network::fail`]).
    Crash(NodeId),
    /// Fail-stop a node **and lose its state**: besides the crash drain,
    /// the node's amnesia epoch advances so its service loop wipes local
    /// state and must catch up from peers after [`FaultAction::Recover`]
    /// (see [`crate::Network::fail_amnesia`]).
    CrashAmnesia(NodeId),
    /// Fail-stop a node **keeping its durable log**: besides the crash
    /// drain, the node's restart epoch advances so its service loop drops
    /// volatile state and replays its log after [`FaultAction::Recover`]
    /// (see [`crate::Network::fail_restart`]).
    CrashRestart(NodeId),
    /// Recover a crashed node (drains again so pre-crash traffic that
    /// raced past the crash drain is not replayed).
    Recover(NodeId),
    /// Fail the directed link `src → dst` (asymmetric: the reverse
    /// direction keeps working unless failed separately).
    FailLink {
        /// Sending side of the dead link.
        src: NodeId,
        /// Receiving side of the dead link.
        dst: NodeId,
    },
    /// Heal the directed link `src → dst`.
    HealLink {
        /// Sending side.
        src: NodeId,
        /// Receiving side.
        dst: NodeId,
    },
    /// Partition the listed groups from each other (both directions of
    /// every cross-group link fail). Nodes absent from every group keep
    /// full connectivity.
    Partition(Vec<Vec<NodeId>>),
    /// Heal every failed link (partitions included).
    HealAllLinks,
}

/// One scheduled fault: `action` fires `at` this offset from run start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFault {
    /// Offset from the start of the schedule.
    pub at: Duration,
    /// The fault to apply.
    pub action: FaultAction,
}

/// Shape parameters for [`FaultPlan::generate`]: how much chaos a generated
/// plan contains. The same profile + seed always yields the same plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosProfile {
    /// Per-message drop probability for the generated catch-all rule.
    pub drop_p: f64,
    /// Per-message duplication probability.
    pub dup_p: f64,
    /// Per-message delay probability.
    pub delay_p: f64,
    /// Extra latency applied to delayed messages.
    pub extra_delay: Duration,
    /// Number of quorum-splitting partition windows to schedule.
    pub partitions: usize,
    /// Number of single-server crash windows to schedule.
    pub crashes: usize,
    /// Number of single-server **crash-with-amnesia** windows to schedule:
    /// like a crash window, but the victim loses its state and must run
    /// the layer-above catch-up protocol after recovery.
    pub amnesia_crashes: usize,
    /// Number of single-server **crash-restart** windows to schedule:
    /// the victim's process dies but its durable log survives; after
    /// recovery it replays the log and fetches only the delta from peers.
    pub restart_crashes: usize,
    /// Length of the run the plan is generated for.
    pub horizon: Duration,
    /// Every scheduled fault is healed by `horizon * heal_by` so the tail
    /// of the run can demonstrate progress on a healthy network.
    pub heal_by: f64,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            drop_p: 0.03,
            dup_p: 0.08,
            delay_p: 0.12,
            extra_delay: Duration::from_millis(1),
            partitions: 1,
            crashes: 1,
            amnesia_crashes: 0,
            restart_crashes: 0,
            horizon: Duration::from_millis(400),
            heal_by: 0.45,
        }
    }
}

/// A complete, reproducible adversarial schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-message fate hash.
    pub seed: u64,
    /// Per-message chaos rules; the first matching rule decides a
    /// message's fate.
    pub rules: Vec<ChaosRule>,
    /// Timed node/link faults, sorted by offset.
    pub events: Vec<TimedFault>,
}

impl FaultPlan {
    /// A plan with per-message rules only (no timed faults).
    pub fn with_rules(seed: u64, rules: Vec<ChaosRule>) -> Self {
        FaultPlan {
            seed,
            rules,
            events: Vec::new(),
        }
    }

    /// Expand `seed` into a full plan for a cluster of `servers` servers
    /// and `clients` clients (servers occupy node ids `0..servers`, clients
    /// `servers..servers+clients`, matching the DTM cluster layout).
    ///
    /// The generated plan has one catch-all message rule with the profile's
    /// probabilities, plus `partitions` minority-partition windows (a
    /// random minority of servers, each client assigned a random side),
    /// `crashes` single-server crash windows, `amnesia_crashes`
    /// crash-with-amnesia windows (the victim's state is lost and must be
    /// re-synced from peers after recovery), and `restart_crashes`
    /// crash-restart windows (the victim's durable log survives; it
    /// replays and fetches only the delta). All faults heal by
    /// `horizon * heal_by`.
    pub fn generate(seed: u64, servers: usize, clients: usize, profile: &ChaosProfile) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_D15E_A5E5);
        let rules = vec![ChaosRule::all(
            profile.drop_p,
            profile.dup_p,
            profile.delay_p,
            profile.extra_delay,
        )];

        let heal_deadline_us =
            ((profile.horizon.as_micros() as f64 * profile.heal_by) as u64).max(4);
        let mut events = Vec::new();

        for _ in 0..profile.partitions {
            if servers < 3 {
                break; // no minority to split off
            }
            let start = rng.gen_range(0..heal_deadline_us / 2);
            let end = rng.gen_range(start + heal_deadline_us / 4..=heal_deadline_us);
            // A strict minority of servers goes to the small side, so the
            // majority side can still form tree quorums.
            let minority_size = rng.gen_range(1..=(servers - 1) / 2);
            let mut ids: Vec<usize> = (0..servers).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            let mut small: Vec<NodeId> = ids[..minority_size]
                .iter()
                .map(|&i| NodeId(i as u32))
                .collect();
            let mut big: Vec<NodeId> = ids[minority_size..]
                .iter()
                .map(|&i| NodeId(i as u32))
                .collect();
            for c in 0..clients {
                let id = NodeId((servers + c) as u32);
                if rng.gen_bool(0.5) {
                    small.push(id);
                } else {
                    big.push(id);
                }
            }
            events.push(TimedFault {
                at: Duration::from_micros(start),
                action: FaultAction::Partition(vec![small, big]),
            });
            events.push(TimedFault {
                at: Duration::from_micros(end),
                action: FaultAction::HealAllLinks,
            });
        }

        // One window per crash, the flavours drawn in this order so a
        // profile + seed keeps yielding the plan it always did.
        type Crash = fn(NodeId) -> FaultAction;
        let flavours: [(usize, Crash); 3] = [
            (profile.crashes, FaultAction::Crash),
            (profile.amnesia_crashes, FaultAction::CrashAmnesia),
            (profile.restart_crashes, FaultAction::CrashRestart),
        ];
        for crash in flavours.into_iter().flat_map(|(n, f)| repeat_n(f, n)) {
            if servers == 0 {
                break;
            }
            let victim = NodeId(rng.gen_range(0..servers) as u32);
            let start = rng.gen_range(0..heal_deadline_us / 2);
            let end = rng.gen_range(start + heal_deadline_us / 4..=heal_deadline_us);
            events.push(TimedFault {
                at: Duration::from_micros(start),
                action: crash(victim),
            });
            events.push(TimedFault {
                at: Duration::from_micros(end),
                action: FaultAction::Recover(victim),
            });
        }

        events.sort_by_key(|e| e.at);
        FaultPlan {
            seed,
            rules,
            events,
        }
    }

    /// Decide the fate of the `n`-th message matching some rule on the
    /// link `(src, dst, kind)`. Pure function of the plan and arguments.
    pub fn decide(&self, src: NodeId, dst: NodeId, kind: MsgKind, n: u64) -> ChaosDecision {
        for (ri, rule) in self.rules.iter().enumerate() {
            if !rule.matches(src, dst, kind) {
                continue;
            }
            let base = mix64(
                self.seed
                    ^ (ri as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (u64::from(src.0) << 40)
                    ^ (u64::from(dst.0) << 20)
                    ^ u64::from(kind),
            )
            .wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03));
            if unit(mix64(base ^ 0x01)) < rule.drop_p {
                return ChaosDecision::Drop;
            }
            let dup = unit(mix64(base ^ 0x02)) < rule.dup_p;
            let delay = unit(mix64(base ^ 0x03)) < rule.delay_p;
            return match (dup, delay) {
                (true, true) => ChaosDecision::DuplicateDelayed(rule.extra_delay),
                (true, false) => ChaosDecision::Duplicate,
                (false, true) => ChaosDecision::Delay(rule.extra_delay),
                (false, false) => ChaosDecision::Deliver,
            };
        }
        ChaosDecision::Deliver
    }

    /// Offset of the last timed fault (zero if the plan has none).
    pub fn last_event_at(&self) -> Duration {
        self.events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let p = ChaosProfile::default();
        let a = FaultPlan::generate(42, 7, 3, &p);
        let b = FaultPlan::generate(42, 7, 3, &p);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 7, 3, &p);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn decisions_are_pure() {
        let plan = FaultPlan::with_rules(
            9,
            vec![ChaosRule::all(0.2, 0.2, 0.2, Duration::from_millis(1))],
        );
        for n in 0..200 {
            assert_eq!(
                plan.decide(NodeId(0), NodeId(1), 3, n),
                plan.decide(NodeId(0), NodeId(1), 3, n)
            );
        }
    }

    #[test]
    fn decision_rates_track_probabilities() {
        let plan = FaultPlan::with_rules(7, vec![ChaosRule::all(0.3, 0.0, 0.0, Duration::ZERO)]);
        let drops = (0..10_000)
            .filter(|&n| plan.decide(NodeId(0), NodeId(1), 0, n) == ChaosDecision::Drop)
            .count();
        assert!(
            (2500..3500).contains(&drops),
            "drop rate off: {drops}/10000"
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::with_rules(
            1,
            vec![
                ChaosRule::for_kind(4, 1.0, 0.0, 0.0, Duration::ZERO),
                ChaosRule::all(0.0, 0.0, 0.0, Duration::ZERO),
            ],
        );
        assert_eq!(plan.decide(NodeId(0), NodeId(1), 4, 0), ChaosDecision::Drop);
        assert_eq!(
            plan.decide(NodeId(0), NodeId(1), 5, 0),
            ChaosDecision::Deliver
        );
    }

    #[test]
    fn generated_faults_heal_within_deadline() {
        let prof = ChaosProfile {
            partitions: 2,
            crashes: 2,
            ..Default::default()
        };
        let plan = FaultPlan::generate(11, 7, 4, &prof);
        let deadline =
            Duration::from_micros((prof.horizon.as_micros() as f64 * prof.heal_by) as u64);
        assert!(!plan.events.is_empty());
        assert!(
            plan.last_event_at() <= deadline,
            "faults must heal by the deadline"
        );
        // Events are sorted.
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn amnesia_windows_pair_crash_with_recover() {
        let prof = ChaosProfile {
            partitions: 0,
            crashes: 0,
            amnesia_crashes: 2,
            ..Default::default()
        };
        for seed in 0..10 {
            let plan = FaultPlan::generate(seed, 7, 3, &prof);
            let crashes: Vec<_> = plan
                .events
                .iter()
                .filter_map(|e| match &e.action {
                    FaultAction::CrashAmnesia(n) => Some((e.at, *n)),
                    _ => None,
                })
                .collect();
            assert_eq!(crashes.len(), 2, "seed {seed}: two amnesia windows");
            for (at, victim) in crashes {
                assert!(
                    plan.events.iter().any(|e| e.at >= at
                        && matches!(&e.action, FaultAction::Recover(n) if *n == victim)),
                    "seed {seed}: amnesia victim {victim} must recover later"
                );
                assert!(victim.0 < 7, "victims are servers only");
            }
        }
        // Deterministic like every other window type.
        assert_eq!(
            FaultPlan::generate(5, 7, 3, &prof),
            FaultPlan::generate(5, 7, 3, &prof)
        );
    }

    #[test]
    fn restart_windows_pair_crash_with_recover() {
        let prof = ChaosProfile {
            partitions: 0,
            crashes: 0,
            restart_crashes: 2,
            ..Default::default()
        };
        for seed in 0..10 {
            let plan = FaultPlan::generate(seed, 7, 3, &prof);
            let crashes: Vec<_> = plan
                .events
                .iter()
                .filter_map(|e| match &e.action {
                    FaultAction::CrashRestart(n) => Some((e.at, *n)),
                    _ => None,
                })
                .collect();
            assert_eq!(crashes.len(), 2, "seed {seed}: two restart windows");
            for (at, victim) in crashes {
                assert!(
                    plan.events.iter().any(|e| e.at >= at
                        && matches!(&e.action, FaultAction::Recover(n) if *n == victim)),
                    "seed {seed}: restart victim {victim} must recover later"
                );
                assert!(victim.0 < 7, "victims are servers only");
            }
            assert!(
                !plan
                    .events
                    .iter()
                    .any(|e| matches!(&e.action, FaultAction::CrashAmnesia(_))),
                "seed {seed}: a restart profile schedules no amnesia"
            );
        }
        // Deterministic like every other window type.
        assert_eq!(
            FaultPlan::generate(5, 7, 3, &prof),
            FaultPlan::generate(5, 7, 3, &prof)
        );
    }

    #[test]
    fn partition_minority_is_strict() {
        let prof = ChaosProfile {
            partitions: 3,
            crashes: 0,
            ..Default::default()
        };
        for seed in 0..20 {
            let plan = FaultPlan::generate(seed, 7, 3, &prof);
            for ev in &plan.events {
                if let FaultAction::Partition(groups) = &ev.action {
                    let server_count = |g: &Vec<NodeId>| g.iter().filter(|n| n.0 < 7).count();
                    let small = groups.iter().map(server_count).min().unwrap();
                    assert!(
                        (1..=3).contains(&small),
                        "minority of 7 servers must be 1..=3, got {small}"
                    );
                }
            }
        }
    }
}
