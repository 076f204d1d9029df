//! The correctness gate every run passes before its figures count.

use crate::replay::Det;
use crate::report::Report;

/// Compares the server's per-session detections with the replay's
/// (order within a session is irrelevant: plans of one batch report in
/// deployment order). Returns the number of detections compared.
pub fn detections(report: &mut Report, server: &mut [Vec<Det>], replay: &mut [Vec<Det>]) -> usize {
    let mut bad = 0usize;
    let mut twice = 0usize;
    let mut first = None;
    for (s, (a, b)) in server.iter_mut().zip(replay.iter_mut()).enumerate() {
        a.sort();
        b.sort();
        if a != b {
            bad += 1;
            // An extra detection overlapping one the replay made is a
            // performance detected more than once.
            twice += a
                .iter()
                .filter(|d| !b.contains(d))
                .filter(|d| b.iter().any(|r| r.0 == d.0 && r.2 <= d.1 && d.2 <= r.1))
                .count();
            first.get_or_insert_with(|| {
                let extra: Vec<&Det> = a.iter().filter(|d| !b.contains(d)).take(3).collect();
                let missing: Vec<&Det> = b.iter().filter(|d| !a.contains(d)).take(3).collect();
                format!(
                    "session {s}: server {} vs replay {} (extra {extra:?}, missing {missing:?})",
                    a.len(),
                    b.len()
                )
            });
        }
    }
    let total: usize = replay.iter().map(Vec::len).sum();
    if bad > 0 {
        report.fail(format!(
            "detections differ from the replay on {bad} session(s), {twice} performance(s) \
             detected more than once; first: {}",
            first.unwrap_or_default()
        ));
    } else if total == 0 {
        report.fail("the workload produced no detections to compare".into());
    }
    report.note(format!(
        "gate: {total} detection(s) over {} session(s) equal the replay: {}",
        replay.len(),
        bad == 0
    ));
    total
}

/// Frames the server did not take in, by where they went.
#[derive(Default, Debug)]
pub struct Lost {
    pub shed: u64,
    pub stale: u64,
    pub quota: u64,
    pub quarantined: u64,
    pub rejected: u64,
}

impl Lost {
    pub fn total(&self) -> u64 {
        self.shed + self.stale + self.quota + self.quarantined + self.rejected
    }
}

/// Checks `sent = frames_in + shed + stale + quota + quarantined +
/// rejected` and fills the report's attempted/failed counts.
pub fn conservation(report: &mut Report, sent: u64, frames_in: u64, lost: &Lost) {
    report.attempted = sent;
    report.failed = sent.saturating_sub(frames_in);
    if sent != frames_in + lost.total() {
        report.fail(format!(
            "conservation: sent {sent} != frames_in {frames_in} + {lost:?}"
        ));
    }
}
