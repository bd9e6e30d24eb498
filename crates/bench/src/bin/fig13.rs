//! Fig. 13: Swiftiles' distributions on amazon0312 for a buffer of 8 K
//! nonzeros at y = 10 %: the sampled distribution at T_initial, the scaled
//! prediction at T_target, and the observed distribution when the tensor is
//! actually tiled at T_target.
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig13 [scale]`

use tailors_bench::{parse_cli, profile_at, rule};
use tailors_core::swiftiles::{Swiftiles, SwiftilesConfig};
use tailors_tensor::stats::{quantile, Histogram};
use tailors_tensor::tiling::RowPanels;

fn main() {
    let (scale, _) = parse_cli();
    let capacity = (8_192.0 * scale).max(64.0) as u64; // the paper's 8K buffer
    let y = 0.10;
    let wl = tailors_workloads::by_name("amazon0312").expect("suite tensor");
    let (scaled_wl, profile) = profile_at(&wl, scale);

    let config = SwiftilesConfig::new(y, 10).expect("valid y").sample_all();
    let est = Swiftiles::new(config).estimate(&profile, capacity);

    // The three distributions of Fig. 13.
    let initial: Vec<u64> = est.samples.clone();
    // Predicted: the sampled distribution linearly rescaled so Q_y lands on
    // the capacity (what Swiftiles *assumes* tiling at T_target looks like).
    let q_y = est.q_y.expect("sampled") as f64;
    let predicted: Vec<u64> = initial
        .iter()
        .map(|&o| (o as f64 * capacity as f64 / q_y).round() as u64)
        .collect();
    let observed: Vec<u64> = RowPanels::new(&profile, est.rows_target)
        .occupancies()
        .collect();

    println!(
        "Fig. 13 — Swiftiles distributions on {} (buffer = {} nnz, y = 10%, scale = {scale})",
        scaled_wl.name, capacity
    );
    rule(74);
    println!(
        "T_initial = {} ({} rows/tile); T_target = {} ({} rows/tile)",
        est.t_initial, est.rows_initial, est.t_target, est.rows_target
    );
    let frac_over = |v: &[u64]| {
        100.0 * v.iter().filter(|&&o| o > capacity).count() as f64 / v.len().max(1) as f64
    };
    println!(
        "tiles over capacity: initial {:.1}%, predicted {:.1}%, observed {:.1}% (target 10%)",
        frac_over(&initial),
        frac_over(&predicted),
        frac_over(&observed)
    );
    rule(74);

    for (label, data) in [
        ("T_initial (sampled)", &initial),
        ("T_target (predicted)", &predicted),
        ("T_target (observed)", &observed),
    ] {
        println!();
        println!("{label}: CDF at selected occupancies");
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for pct in [50.0, 80.0, 90.0, 95.0, 99.0, 100.0] {
            let v = quantile(&sorted, pct / 100.0);
            println!("  {:>5.1}% of tiles <= {:>10} nnz", pct, v);
        }
        let h = Histogram::new(data, 8);
        let fr = h.fractions();
        print!("  pdf:");
        for ((start, _), f) in h.iter().zip(fr) {
            print!(" [{start}:{:.0}%]", 100.0 * f);
        }
        println!();
    }
    rule(74);
    println!("paper: scaling aligns the predicted CDF with the observed one at the");
    println!("y = 10% point (90% of tiles fit) despite T_initial being inaccurate.");
}
