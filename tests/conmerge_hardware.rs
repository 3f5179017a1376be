//! ConMerge ↔ SDUE hardware-fidelity tests: every schedule the ConMerge
//! vector generator emits must execute bit-faithfully through the SDUE's
//! switch semantics and reproduce the dense MMUL at every masked position.

use exion::core::bitmask::Bitmask2D;
use exion::core::conmerge::{CompactionConfig, CompactionReport, CvgResult, TileCompactor};
use exion::sim::config::DscGeometry;
use exion::sim::sdue::SdueModel;
use exion::tensor::{ops, rng::seeded_uniform, Matrix};
use proptest::prelude::*;

/// Executes a compacted schedule and checks it against the dense result.
fn check_schedule(mask: &Bitmask2D, inputs: &Matrix, weights: &Matrix, sorted: bool) {
    let compactor = TileCompactor::new(CompactionConfig {
        sorted,
        ..CompactionConfig::default()
    });
    let sdue = SdueModel::new(DscGeometry::exion());
    let dense = ops::matmul(inputs, weights);

    let mut covered = 0usize;
    let mut row0 = 0;
    while row0 < mask.rows() {
        let height = 16.min(mask.rows() - row0);
        let tile_inputs = inputs.submatrix(row0, 0, height, inputs.cols());
        let result = compactor.compact_tile(mask, row0, height);
        for block in &result.merged_blocks {
            for out in sdue.execute_merged_block(block, &tile_inputs, weights) {
                let want = dense[(row0 + out.input_row, out.weight_col)];
                assert!(
                    (out.value - want).abs() < 1e-3,
                    "({}, {}): merged {} vs dense {}",
                    row0 + out.input_row,
                    out.weight_col,
                    out.value,
                    want
                );
                assert!(mask.get(row0 + out.input_row, out.weight_col));
                covered += 1;
            }
        }
        row0 += height;
    }
    assert_eq!(
        covered,
        mask.count_ones(),
        "every masked element computed once"
    );
}

#[test]
fn dense_and_sparse_masks_execute_faithfully() {
    let inputs = seeded_uniform(48, 40, -1.0, 1.0, 1);
    let weights = seeded_uniform(40, 96, -1.0, 1.0, 2);
    for (seed, keep_mod) in [(3u64, 2usize), (4, 7), (5, 19)] {
        let mask = Bitmask2D::from_fn(48, 96, |r, c| {
            (r * 31 + c * 17 + seed as usize).is_multiple_of(keep_mod)
        });
        check_schedule(&mask, &inputs, &weights, true);
        check_schedule(&mask, &inputs, &weights, false);
    }
}

/// One SplitMix64 step: the corpus generator of the golden below, kept
/// here so the corpus does not depend on any RNG crate's stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The golden corpus: 96 seeded random masks of 1–100 rows and 1–100
/// columns, each at one of six densities from 2 % to 85 %.
fn golden_corpus() -> Vec<Bitmask2D> {
    const DENSITY_PCT: [u64; 6] = [2, 6, 15, 30, 55, 85];
    let mut state = 0xC0FF_EE00_D15C_0DE5;
    (0..96)
        .map(|i| {
            let rows = 1 + (splitmix(&mut state) % 100) as usize;
            let cols = 1 + (splitmix(&mut state) % 100) as usize;
            let pct = DENSITY_PCT[i % DENSITY_PCT.len()];
            Bitmask2D::from_fn(rows, cols, |_, _| splitmix(&mut state) % 100 < pct)
        })
        .collect()
}

/// FNV fold (the one `tests/end_to_end.rs` pins the pipeline with) over
/// every field of one tile's CVG result: each merged block's shape, slots,
/// CV, source-block count and relocations, then the cycle, merge-cycle,
/// failed-attempt and column counts.
fn fold_cvg(mix: &mut impl FnMut(u64), r: &CvgResult) {
    mix(r.merged_blocks.len() as u64);
    for b in &r.merged_blocks {
        mix(b.height() as u64);
        mix(b.width() as u64);
        for lane in 0..b.height() {
            for col in 0..b.width() {
                match b.slot(lane, col) {
                    None => mix(u64::MAX),
                    Some(s) => {
                        mix(s.input_row as u64);
                        mix(s.weight_col as u64);
                        mix(u64::from(s.wmem));
                    }
                }
            }
        }
        for cv in b.cv() {
            mix(cv.map_or(u64::MAX, |row| row as u64));
        }
        mix(b.source_blocks() as u64);
        mix(b.relocations() as u64);
    }
    mix(r.cycles);
    mix(r.merge_cycles);
    mix(r.failed_attempts);
    mix(r.input_cols as u64);
    mix(r.surviving_cols as u64);
}

/// FNV fold over every field of one whole-mask compaction report.
fn fold_report(mix: &mut impl FnMut(u64), r: &CompactionReport) {
    mix(r.tiles as u64);
    mix(r.input_cols as u64);
    mix(r.dense_blocks);
    mix(r.merged_blocks);
    mix(r.global_condense_cols as u64);
    mix(r.condense_only_blocks);
    mix(r.cvg_cycles);
    mix(r.mean_block_utilization.to_bits());
}

/// Fingerprints of the golden corpus under four configurations: per tile
/// at the configured height (ragged tail tiles included), one tile of
/// `min(rows, 64)` rows per mask (tile heights 1–64), and the whole-mask
/// report. Captured before merges were decided on bitmasks; ConMerge must
/// reproduce every schedule, CV and cycle count bit for bit.
const CONMERGE_GOLDENS: [(&str, u64); 4] = [
    ("default", 0x5606_d357_5efa_6a3a),
    ("toy", 0x04f0_c775_8133_bd05),
    ("unsorted", 0x5448_bc10_c698_3b85),
    ("one merge", 0x0a89_f39a_bf2b_a399),
];

#[test]
fn compaction_matches_its_golden_fingerprints() {
    let configs = [
        CompactionConfig::default(),
        CompactionConfig::toy(),
        CompactionConfig {
            sorted: false,
            ..CompactionConfig::default()
        },
        CompactionConfig {
            max_merges: 1,
            ..CompactionConfig::default()
        },
    ];
    let corpus = golden_corpus();
    let mut mismatches = Vec::new();
    for ((name, golden), config) in CONMERGE_GOLDENS.into_iter().zip(configs) {
        let compactor = TileCompactor::new(config);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for mask in &corpus {
            let mut row0 = 0;
            while row0 < mask.rows() {
                let height = config.tile_height.min(mask.rows() - row0);
                fold_cvg(&mut mix, &compactor.compact_tile(mask, row0, height));
                row0 += height;
            }
            let tall = mask.rows().min(64);
            fold_cvg(&mut mix, &compactor.compact_tile(mask, 0, tall));
            fold_report(&mut mix, &compactor.compact_matrix(mask));
        }
        if h != golden {
            mismatches.push(format!("{name}: {h:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "ConMerge diverged from its goldens:\n{}",
        mismatches.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: any bitmask's ConMerge schedule reproduces the dense MMUL
    /// at exactly the masked positions, with every element computed once.
    #[test]
    fn conmerge_schedule_is_always_faithful(
        seed in 0u64..1000,
        density in 1usize..12,
        rows in 8usize..40,
        cols in 8usize..80,
    ) {
        let inputs = seeded_uniform(rows, 24, -1.0, 1.0, seed);
        let weights = seeded_uniform(24, cols, -1.0, 1.0, seed + 1);
        let mask = Bitmask2D::from_fn(rows, cols, |r, c| {
            let h = (r as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((c as u64).wrapping_mul(seed + 3));
            (h % 29) < density as u64
        });
        check_schedule(&mask, &inputs, &weights, true);
    }

    /// Property: compaction never loses or duplicates work, regardless of
    /// sparsity pattern.
    #[test]
    fn compaction_preserves_popcount(
        seed in 0u64..1000,
        density in 0usize..16,
    ) {
        let mask = Bitmask2D::from_fn(32, 64, |r, c| {
            let h = (r as u64 * 37 + c as u64 * 61).wrapping_mul(seed + 11);
            (h % 31) < density as u64
        });
        let compactor = TileCompactor::new(CompactionConfig::default());
        let mut placed = 0usize;
        let mut row0 = 0;
        while row0 < mask.rows() {
            let height = 16.min(mask.rows() - row0);
            let result = compactor.compact_tile(&mask, row0, height);
            placed += result
                .merged_blocks
                .iter()
                .map(|b| b.occupied_slots())
                .sum::<usize>();
            row0 += height;
        }
        prop_assert_eq!(placed, mask.count_ones());
    }

    /// Property: per-lane conflict vectors are consistent — every slot on a
    /// conflict line matches its lane's CV.
    #[test]
    fn conflict_vectors_are_consistent(seed in 0u64..500) {
        let mask = Bitmask2D::from_fn(16, 64, |r, c| {
            let h = (r as u64 * 97 + c as u64 * 13).wrapping_mul(seed + 7);
            (h % 23) < 4
        });
        let compactor = TileCompactor::new(CompactionConfig::default());
        let result = compactor.compact_tile(&mask, 0, 16);
        for block in &result.merged_blocks {
            for lane in 0..block.height() {
                for col in 0..block.width() {
                    if let Some(slot) = block.slot(lane, col) {
                        prop_assert!(
                            slot.input_row == lane
                                || block.cv()[lane] == Some(slot.input_row),
                            "lane {} reads row {} but CV is {:?}",
                            lane, slot.input_row, block.cv()[lane]
                        );
                        prop_assert!(slot.wmem < 3, "only three WMEM buffers exist");
                    }
                }
            }
        }
    }
}
