//! One function per figure/table of the paper's evaluation (§5).
//!
//! | id | paper | function |
//! |---|---|---|
//! | fig13 | exec time before/after path rules | [`rules::fig13`] |
//! | fig14 | before/after pipelining rules | [`rules::fig14`] |
//! | fig15 | before/after group-by rules | [`rules::fig15`] |
//! | fig16 | Q1 vs data size, before/after all rules | [`rules::fig16`] |
//! | fig17 | single-node speed-up (partitions, HT) | [`parallel::fig17`] |
//! | fig18 | time & space vs measurements/array | [`compare_single::fig18`] |
//! | table1 | Mongo/Asterix(load) load times | [`compare_single::table1`] |
//! | fig19 | Spark vs VXQuery, Q1, sizes | [`compare_single::fig19`] |
//! | table2 | Spark load times | [`compare_single::table2`] |
//! | table3 | memory: Spark vs VXQuery | [`compare_single::table3`] |
//! | fig20 | cluster speed-up, all queries | [`parallel::fig20`] |
//! | fig21 | cluster scale-up, all queries | [`parallel::fig21`] |
//! | fig22 | vs AsterixDB speed-up (Q0b, Q2) | [`compare_cluster::fig22`] |
//! | fig23 | vs AsterixDB scale-up (Q0b, Q2) | [`compare_cluster::fig23`] |
//! | fig24 | vs MongoDB speed-up (Q0b, Q2) | [`compare_cluster::fig24`] |
//! | fig25 | vs MongoDB scale-up (Q0b, Q2) | [`compare_cluster::fig25`] |
//! | table4 | MongoDB load times | [`compare_cluster::table4`] |
//! | ablation-twostep | (beyond the paper) two-step aggregation | [`ablation::two_step`] |
//! | ablation-scanfilter | (beyond the paper) DATASCAN tape filter off/on | [`ablation::scan_filter`] |
//! | ablation-eager | (beyond the paper) eager aggregation below the join off/on | [`ablation::eager_aggregation`] |
//! | ablation-frames | (beyond the paper) frame-size sweep | [`ablation::frame_size`] |
//! | ablation-memory | (beyond the paper) peak memory per rule config | [`ablation::memory_by_config`] |
//! | spill | (beyond the paper) memory-budget sweep, spilling operators | [`spill::spill`] |

pub mod ablation;
pub mod compare_cluster;
pub mod compare_single;
pub mod parallel;
pub mod rules;
pub mod spill;

use crate::{Harness, Table};

/// An experiment entry point: harness in, result tables out.
pub type ExperimentFn = fn(&Harness) -> Vec<Table>;

/// The experiment registry, in paper order.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig13", rules::fig13),
    ("fig14", rules::fig14),
    ("fig15", rules::fig15),
    ("fig16", rules::fig16),
    ("fig17", parallel::fig17),
    ("fig18", compare_single::fig18),
    ("table1", compare_single::table1),
    ("fig19", compare_single::fig19),
    ("table2", compare_single::table2),
    ("table3", compare_single::table3),
    ("fig20", parallel::fig20),
    ("fig21", parallel::fig21),
    ("fig22", compare_cluster::fig22),
    ("fig23", compare_cluster::fig23),
    ("fig24", compare_cluster::fig24),
    ("fig25", compare_cluster::fig25),
    ("table4", compare_cluster::table4),
    ("ablation-twostep", ablation::two_step),
    ("ablation-scanfilter", ablation::scan_filter),
    ("ablation-eager", ablation::eager_aggregation),
    ("ablation-frames", ablation::frame_size),
    ("ablation-memory", ablation::memory_by_config),
    ("spill", spill::spill),
];

/// Look up an experiment by id.
pub fn by_name(name: &str) -> Option<ExperimentFn> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
}
