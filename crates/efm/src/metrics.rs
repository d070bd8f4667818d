//! The run metrics, each declared once.
//!
//! Two tables list them: [`Phase`], the six phases of an iteration (the
//! paper's Table II rows), and [`COUNTERS`], every scalar counter of
//! [`RunStats`]. Accumulation, the cluster's per-phase maximum, the
//! checkpoint codec, the trace and the CLI summary loop over the tables,
//! so adding a metric takes its table line, its field and its increment.

use crate::types::{PhaseBreakdown, RunStats};
use std::time::Duration;

macro_rules! phase_table {
    ($($phase:ident => $field:ident, $span:literal, $label:literal;)*) => {
        /// One phase of an iteration: a [`PhaseBreakdown`] field (indexed
        /// by the phase), the trace span that times it and its label in
        /// the CLI summary.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Phase {
            $(
                #[doc = concat!("`", $span, "`")]
                $phase,
            )*
        }

        impl Phase {
            /// Every phase, in Table II order.
            pub const ALL: &'static [Phase] = &[$(Phase::$phase),*];

            /// The trace-span label (traces and the benchmark read it).
            pub fn span(self) -> &'static str {
                match self {
                    $(Phase::$phase => $span,)*
                }
            }

            /// The label in the CLI summary.
            pub fn label(self) -> &'static str {
                match self {
                    $(Phase::$phase => $label,)*
                }
            }
        }

        impl std::ops::Index<Phase> for PhaseBreakdown {
            type Output = Duration;
            fn index(&self, phase: Phase) -> &Duration {
                match phase {
                    $(Phase::$phase => &self.$field,)*
                }
            }
        }

        impl std::ops::IndexMut<Phase> for PhaseBreakdown {
            fn index_mut(&mut self, phase: Phase) -> &mut Duration {
                match phase {
                    $(Phase::$phase => &mut self.$field,)*
                }
            }
        }
    };
}

phase_table! {
    Generate => generate, "gen cand", "gen";
    Dedup => dedup, "sort/dedup", "dedup";
    TreeFilter => tree_filter, "tree filter", "tree_filter";
    RankTest => rank_test, "rank test", "ranktest";
    Communicate => communicate, "communicate", "comm";
    Merge => merge, "merge", "merge";
}

/// How a counter's values from two runs combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// Totals add up; the trace adds each increment to a counter.
    Sum,
    /// Peaks take the larger; the trace raises a gauge.
    Max,
}

/// One scalar counter of [`RunStats`].
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// Its name in the trace and the metrics JSON.
    pub name: &'static str,
    /// The unit of its value.
    pub unit: &'static str,
    /// How two runs' values combine ([`RunStats::accumulate`]).
    pub merge: Merge,
    /// Reads the counter.
    pub get: fn(&RunStats) -> u64,
    /// The counter's field.
    pub get_mut: fn(&mut RunStats) -> &mut u64,
}

macro_rules! counter_table {
    ($($field:ident: $name:literal, $unit:literal, $merge:ident;)*) => {
        /// Every scalar counter of [`RunStats`].
        pub const COUNTERS: &[Counter] = &[$(
            Counter {
                name: $name,
                unit: $unit,
                merge: Merge::$merge,
                get: |s| s.$field,
                get_mut: |s| &mut s.$field,
            },
        )*];
    };
}

counter_table! {
    candidates_generated: "candidates", "pairs", Sum;
    tree_pruned: "tree pruned", "pairs", Sum;
    dedup_hits: "dedup hits", "candidates", Sum;
    rank_tests: "rank tests", "candidates", Sum;
    comm_messages: "comm msgs", "msgs", Sum;
    comm_bytes: "comm bytes", "B", Sum;
    peak_modes: "peak modes", "modes", Max;
    peak_bytes: "peak bytes", "B", Max;
    peak_transient_bytes: "peak transient bytes", "B", Max;
    stream_batches: "stream batches", "batches", Sum;
    spill_bytes: "spill bytes", "B", Sum;
    final_modes: "final modes", "modes", Sum;
    kernel_blocks: "kernel blocks", "blocks", Sum;
    kernel_pruned: "kernel pruned", "pairs", Sum;
    arena_peak_bytes: "arena bytes", "B", Max;
    failovers: "failovers", "events", Sum;
    ranks_lost: "ranks lost", "ranks", Sum;
}

impl PhaseBreakdown {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        Phase::ALL.iter().map(|&p| self[p]).sum()
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        for &p in Phase::ALL {
            self[p] += other[p];
        }
    }
}

impl RunStats {
    /// Accumulates another run's statistics (used by divide-and-conquer to
    /// report cumulative numbers across subproblems): each counter by its
    /// merge rule, phases and time added, the first kernel tier kept.
    pub fn accumulate(&mut self, other: &RunStats) {
        for c in COUNTERS {
            let (v, w) = ((c.get_mut)(self), (c.get)(other));
            *v = if c.merge == Merge::Sum { *v + w } else { (*v).max(w) };
        }
        self.phases.accumulate(&other.phases);
        self.total_time += other.total_time;
        if self.kernel_tier.is_empty() {
            self.kernel_tier = other.kernel_tier.clone();
        }
        self.recovery.events.extend(other.recovery.events.iter().cloned());
    }
}

/// Publishes counts this process added to the run's statistics (`added`
/// holds the increments and, for peaks, the new values) to the trace: sums
/// are added to their counters and peaks raise their gauges, so the
/// metrics JSON reads what [`RunStats`] holds. A cluster rank passes its
/// own share only, so every count reaches the trace once.
pub(crate) fn trace(added: &RunStats) {
    if !efm_obs::enabled() {
        return;
    }
    for c in COUNTERS {
        let v = (c.get)(added);
        match c.merge {
            Merge::Sum => efm_obs::counter_add(c.name, v),
            Merge::Max => efm_obs::gauge_max(c.name, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_breakdown_totals() {
        let mut p = PhaseBreakdown {
            generate: Duration::from_millis(10),
            rank_test: Duration::from_millis(5),
            ..Default::default()
        };
        let q = PhaseBreakdown { merge: Duration::from_millis(1), ..Default::default() };
        p.accumulate(&q);
        assert_eq!(p.total(), Duration::from_millis(16));
    }

    #[test]
    fn runstats_accumulate() {
        let mut a = RunStats {
            candidates_generated: 10,
            peak_modes: 5,
            final_modes: 2,
            ..Default::default()
        };
        let b = RunStats {
            candidates_generated: 7,
            peak_modes: 9,
            final_modes: 3,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.candidates_generated, 17);
        assert_eq!(a.peak_modes, 9);
        assert_eq!(a.final_modes, 5);
    }

    #[test]
    fn every_counter_and_phase_is_its_own_field() {
        let mut s = RunStats::default();
        for (i, c) in COUNTERS.iter().enumerate() {
            *(c.get_mut)(&mut s) = i as u64 + 1;
        }
        for (i, &p) in Phase::ALL.iter().enumerate() {
            s.phases[p] = Duration::from_millis(i as u64 + 1);
        }
        let values: Vec<u64> = COUNTERS.iter().map(|c| (c.get)(&s)).collect();
        assert_eq!(values, (1..=COUNTERS.len() as u64).collect::<Vec<_>>());
        let times: Vec<Duration> = Phase::ALL.iter().map(|&p| s.phases[p]).collect();
        assert_eq!(times, (1..=6).map(Duration::from_millis).collect::<Vec<_>>());
        let names: std::collections::BTreeSet<_> = COUNTERS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), COUNTERS.len(), "counter names are distinct");
    }
}
