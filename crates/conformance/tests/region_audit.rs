//! Golden-report drift check for the region-analysis audit.
//!
//! `region-golden.txt` is the committed output of `probe_analyze
//! region`. Any change to the region bounds or gate counters over the
//! audit workloads — a transfer-function change, a new prune firing —
//! shows up as a diff here and
//! must be reviewed (and the golden regenerated) rather than slipping
//! through silently. CI runs the same comparison via the binary.

use flextensor_conformance::region_audit;

const GOLDEN: &str = include_str!("../region-golden.txt");

#[test]
fn region_audit_matches_the_committed_golden_report() {
    let report = region_audit();
    assert_eq!(
        report.violations, 0,
        "certified bound excluded a realized best:\n{}",
        report.text
    );
    assert_eq!(
        report.text, GOLDEN,
        "region audit drifted from crates/conformance/region-golden.txt; \
         regenerate with `cargo run -p flextensor-bench --bin probe_analyze -- region` \
         and review the diff"
    );
}
