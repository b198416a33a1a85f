//! `Counter::HintInvalidations` counts only invalidations of hints that can
//! exist: a forest whose hint table was never built (every upper HDT level,
//! and a level 0 that has served no query) records none, however many
//! links and cuts it takes.
//!
//! The metrics flag and the counter are process-global, so this file holds
//! one test and nothing else runs in its process.

use dc_ett::EulerForest;
use dc_obs::Counter;

fn churn(forest: &EulerForest) {
    for v in 1..8 {
        forest.link(v - 1, v);
    }
    for v in 1..8 {
        forest.cut(v - 1, v);
    }
}

#[test]
fn only_forests_with_a_hint_table_count_invalidations() {
    dc_obs::set_metrics_enabled(true);
    let forest = EulerForest::with_seed(8, 0);
    churn(&forest);
    assert!(!forest.hints_materialized());
    assert_eq!(
        dc_obs::counter_value(Counter::HintInvalidations),
        0,
        "a forest that never served a query holds no hint to invalidate"
    );
    assert!(!forest.connected(0, 7));
    assert!(forest.hints_materialized());
    churn(&forest);
    assert!(
        dc_obs::counter_value(Counter::HintInvalidations) > 0,
        "links and cuts on a queried forest invalidate its hints"
    );
}
