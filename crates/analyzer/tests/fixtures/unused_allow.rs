// Fixture: a stale suppression — nothing fires on the covered line, so
// the allow itself becomes an unused-allow finding.
// llp-analyzer: allow(wall-clock) -- this used to meter a solve here
fn nothing_to_suppress() -> u32 {
    7
}
