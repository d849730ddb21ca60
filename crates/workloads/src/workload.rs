//! The workload abstraction consumed by the driver.

use acn_dtm::{DtmClient, DtmError, TxnCtx};
use acn_txir::{DependencyModel, Program, UnitBlockId, Value};
use rand::rngs::StdRng;

/// Attempts [`seed_txn`] makes before declaring the cluster unseedable.
const SEED_RETRIES: usize = 50;

/// Run one seeding transaction to completion, retrying transient aborts.
///
/// Seeding runs before any network fault plan is installed, but
/// *storage* fault injection is live from cluster start: a replica whose
/// WAL append failed refuses prepare votes until its next successful
/// sync, which can transiently abort a seed commit. Retrying with a
/// fresh context is what a loader does; reads hold no locks and an
/// aborted 2PC round releases its own, so dropping the failed context
/// is enough. Panics after `SEED_RETRIES` consecutive failures — a
/// seeder that cannot commit at all means the cluster is genuinely down.
pub fn seed_txn(
    client: &mut DtmClient,
    body: impl Fn(&mut DtmClient, &mut TxnCtx) -> Result<(), DtmError>,
) {
    let mut last = None;
    for _ in 0..SEED_RETRIES {
        let mut ctx = TxnCtx::begin(client);
        let outcome = body(client, &mut ctx).and_then(|()| ctx.commit(client));
        match outcome {
            Ok(()) => return,
            Err(e) => last = Some(e),
        }
    }
    panic!("seeding could not commit after {SEED_RETRIES} attempts: {last:?}");
}

/// One transaction to execute: which template and with which parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnRequest {
    /// Index into [`Workload::templates`].
    pub template: usize,
    /// Parameter bindings for this instance.
    pub params: Vec<Value>,
}

/// A benchmark: a fixed set of transaction templates plus a generator of
/// transaction instances. `phase` indexes the contention regime — the
/// driver advances it per the scenario's schedule to reproduce the paper's
/// hot-set shifts (Fig 4(e)/(f)).
pub trait Workload: Send + Sync {
    /// Short benchmark name.
    fn name(&self) -> &str;

    /// The transaction templates, analyzed once by the Static Module.
    fn templates(&self) -> &[Program];

    /// The "programmer's" manual closed-nesting decomposition of template
    /// `t` — the QR-CN baseline. Groups are UnitBlock ids in execution
    /// order and must satisfy the template's dependencies.
    fn manual_groups(&self, t: usize, dm: &DependencyModel) -> Vec<Vec<UnitBlockId>>;

    /// Generate the next transaction instance under contention phase
    /// `phase`.
    fn next(&self, rng: &mut StdRng, phase: usize) -> TxnRequest;

    /// Populate initial state before measurement (default: nothing — the
    /// store materialises objects lazily).
    fn seed(&self, _client: &mut DtmClient) {}
}
