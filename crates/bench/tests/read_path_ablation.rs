//! Acceptance checks for the batched read path: the ablation must show a
//! ≥2× reduction in quorum traffic on Bank-style wide transactions, and
//! delta validation must keep shipped validate entries linear — not
//! quadratic — in the read-set size.

use acn_bench::figures::read_path_sample;

#[test]
fn batching_halves_messages_on_eight_object_bank_txns() {
    let unbatched = read_path_sample(8, 20, false);
    let batched = read_path_sample(8, 20, true);
    assert_eq!(unbatched.commits, 20);
    assert_eq!(batched.commits, 20);
    assert!(
        unbatched.messages_sent >= 2 * batched.messages_sent,
        "expected >=2x message reduction: unbatched {} vs batched {}",
        unbatched.messages_sent,
        batched.messages_sent
    );
    assert!(
        unbatched.read_rounds >= 2 * batched.read_rounds,
        "expected >=2x fewer read rounds: {} vs {}",
        unbatched.read_rounds,
        batched.read_rounds
    );
    assert!(
        unbatched.bytes_sent > batched.bytes_sent,
        "batching must also shrink bytes: {} vs {}",
        unbatched.bytes_sent,
        batched.bytes_sent
    );
}

#[test]
fn delta_validation_grows_linearly_not_quadratically() {
    // Doubling the read-set size should roughly quadruple the unbatched
    // validate traffic (sum 0..n-1 per member) but at most double-ish the
    // batched traffic (one delta per Block).
    let txns = 10;
    let (small, large) = (6, 12);
    let unb_small = read_path_sample(small, txns, false);
    let unb_large = read_path_sample(large, txns, false);
    let bat_small = read_path_sample(small, txns, true);
    let bat_large = read_path_sample(large, txns, true);

    let unb_ratio =
        unb_large.validate_entries_sent as f64 / unb_small.validate_entries_sent.max(1) as f64;
    let bat_ratio =
        bat_large.validate_entries_sent as f64 / bat_small.validate_entries_sent.max(1) as f64;
    assert!(
        unb_ratio > 3.0,
        "unbatched validate traffic should grow ~quadratically, got {unb_ratio:.2}x \
         ({} -> {})",
        unb_small.validate_entries_sent,
        unb_large.validate_entries_sent
    );
    assert!(
        bat_ratio < 3.0,
        "batched validate traffic should grow ~linearly, got {bat_ratio:.2}x \
         ({} -> {})",
        bat_small.validate_entries_sent,
        bat_large.validate_entries_sent
    );
    // And in absolute terms the delta path ships far fewer entries.
    assert!(
        bat_large.validate_entries_sent * 2 < unb_large.validate_entries_sent,
        "delta validation must undercut full revalidation: {} vs {}",
        bat_large.validate_entries_sent,
        unb_large.validate_entries_sent
    );
}
