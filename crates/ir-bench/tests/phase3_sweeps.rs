//! Sweep budget of the composition-only solver on the smoke Figure-16
//! query set. A folded-in line re-sweeps only when it could reach the
//! cached k-th trace, so kinetic sweeps stay far below the Phase-3 tuple
//! count; re-sweeping once per tuple would cost two sweeps per tuple.

use ir_bench::{BenchDataset, Scale};
use ir_core::{Algorithm, ComputationStats, RegionComputation, RegionConfig};
use std::sync::Arc;

#[test]
fn composition_only_sweeps_stay_below_a_quarter_of_phase3_tuples() {
    let queries = BenchDataset::queries_per_point(Scale::Smoke);
    let mut stats = ComputationStats::default();
    let mut dims = 0u64;
    for qlen in [2usize, 4, 6, 8, 10] {
        let (index, workload) = BenchDataset::Wsj
            .prepare(Scale::Smoke, qlen, 10, queries)
            .unwrap();
        let index = Arc::new(index);
        for query in workload.iter() {
            for algorithm in Algorithm::ALL {
                let config = RegionConfig::flat(algorithm).composition_only();
                let report = RegionComputation::new(index.clone(), query, config)
                    .unwrap()
                    .compute()
                    .unwrap();
                dims += report.dims.len() as u64;
                stats.merge(&report.stats);
            }
        }
    }
    let (sweeps, tuples) = (stats.kinetic_sweeps, stats.phase3_tuples);
    assert!(
        sweeps > 0 && tuples > 0,
        "vacuous run: {sweeps} sweeps, {tuples} tuples"
    );
    assert!(
        sweeps * 4 < tuples,
        "{sweeps} sweeps for {tuples} Phase-3 tuples over {dims} dimension solves \
         ({:.1} sweeps per dimension, limit {:.1})",
        sweeps as f64 / dims as f64,
        tuples as f64 / dims as f64 / 4.0,
    );
}
