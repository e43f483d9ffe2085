//! Analysis statistics: the raw data behind Tables 2/3 and Figure 2.

use std::fmt;

/// Counters every detector maintains while processing a trace.
///
/// The conventions match the paper's accounting:
///
/// * `vc_allocated` counts every vector clock the detector allocates for
///   shadow state or synchronization state (Table 2, "Vector Clocks
///   Allocated");
/// * `vc_ops` counts every *O(n)*-time vector-clock operation — copy, join,
///   and full comparison (Table 2, "Vector Clock Operations"). *O(1)* epoch
///   operations are deliberately **not** counted here; they are what the
///   fast paths buy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total operations processed.
    pub ops: u64,
    /// Data reads processed.
    pub reads: u64,
    /// Data writes processed.
    pub writes: u64,
    /// Synchronization operations processed (acquire/release/fork/join/
    /// volatile/wait/barrier).
    pub sync_ops: u64,
    /// Vector clocks allocated.
    ///
    /// This counts *logical* allocations: a clock served from the recycle
    /// pool still counts here (and additionally in `vc_reused`), so the
    /// paper's Table 2 numbers are unaffected by pooling.
    pub vc_allocated: u64,
    /// O(n)-time vector-clock operations performed (copy, join, compare).
    pub vc_ops: u64,
    /// Read vector clocks handed back to the recycle pool when
    /// `[FT WRITE SHARED]` collapsed a read-shared variable to an epoch.
    pub vc_recycled: u64,
    /// Vector-clock allocations served from the recycle pool instead of the
    /// heap allocator.
    pub vc_reused: u64,
    /// Synchronization joins answered by an O(1) fast path (release-epoch
    /// or seen-version check) with no clock traffic at all. Disjoint from
    /// `vc_ops` — a hit performs no O(n) work.
    pub sync_fastpath_hits: u64,
    /// Synchronization joins that fell through to a real O(n) clock join.
    /// Each slow join is also counted in `vc_ops`.
    pub sync_slow_joins: u64,
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of classified synchronization joins answered by an O(1)
    /// fast path, in `[0, 1]`. `None` until at least one join was
    /// classified (sync-free traces have no meaningful rate).
    pub fn sync_fastpath_rate(&self) -> Option<f64> {
        let total = self.sync_fastpath_hits + self.sync_slow_joins;
        if total == 0 {
            None
        } else {
            Some(self.sync_fastpath_hits as f64 / total as f64)
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops ({} reads, {} writes, {} sync); {} VCs allocated ({} reused); {} VC ops; sync joins {} fast / {} slow",
            self.ops,
            self.reads,
            self.writes,
            self.sync_ops,
            self.vc_allocated,
            self.vc_reused,
            self.vc_ops,
            self.sync_fastpath_hits,
            self.sync_slow_joins
        )
    }
}

/// One analysis rule's hit count, as reported by
/// [`Detector::rule_breakdown`](crate::Detector::rule_breakdown).
///
/// `share` is the denominator category: rules over reads report their share
/// of all reads, mirroring the Figure 2 annotations ("[FT READ SAME EPOCH]
/// 63.4% of reads").
#[derive(Clone, Debug, PartialEq)]
pub struct RuleCount {
    /// Rule name, e.g. `"FT READ SAME EPOCH"`.
    pub rule: &'static str,
    /// Number of operations handled by this rule.
    pub hits: u64,
    /// Percentage of the rule's operation category (reads or writes).
    pub percent: f64,
}

impl RuleCount {
    /// Convenience constructor computing the percentage.
    pub fn of(rule: &'static str, hits: u64, total: u64) -> Self {
        let percent = if total == 0 {
            0.0
        } else {
            100.0 * hits as f64 / total as f64
        };
        RuleCount {
            rule,
            hits,
            percent,
        }
    }
}

impl fmt::Display for RuleCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} hits ({:.1}%)",
            self.rule, self.hits, self.percent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_count_percentage() {
        let r = RuleCount::of("FT READ SAME EPOCH", 634, 1000);
        assert!((r.percent - 63.4).abs() < 1e-9);
        assert_eq!(RuleCount::of("X", 5, 0).percent, 0.0);
    }

    #[test]
    fn fastpath_rate_is_hits_over_classified_joins() {
        let mut s = Stats::new();
        assert_eq!(s.sync_fastpath_rate(), None);
        s.sync_fastpath_hits = 3;
        s.sync_slow_joins = 1;
        assert!((s.sync_fastpath_rate().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let mut s = Stats::new();
        s.ops = 10;
        s.reads = 8;
        assert!(s.to_string().contains("10 ops"));
        let r = RuleCount::of("R", 1, 2);
        assert!(r.to_string().contains("50.0%"));
    }
}
