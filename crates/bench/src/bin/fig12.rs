//! Fig. 12: MAE of Swiftiles' achieved-vs-target overbooking rate as the
//! sample parameter k sweeps from 0 (no sampling: the initial estimate) to
//! full sampling, at y = 10 %.
//!
//! The paper: error drops steeply from k = 0, reaches ~5.8 % at k = 10,
//! and plateaus near 5.5 % at full sampling (the residual is the one-shot
//! scaling assumption, not sampling noise).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig12 [scale]`

use tailors_bench::{arch_at, bar, parse_cli, profile_at, rule};
use tailors_core::swiftiles::{achieved_overbooking_rate, Swiftiles, SwiftilesConfig};
use tailors_tensor::stats::mae_to_target;

fn main() {
    let (scale, _) = parse_cli();
    let arch = arch_at(scale);
    let capacity = arch.tile_capacity();
    let y = 0.10;
    let seeds = [1u64, 2, 3];

    let suite: Vec<_> = tailors_workloads::suite()
        .iter()
        .map(|wl| profile_at(wl, scale))
        .collect();

    println!("Fig. 12 — Swiftiles MAE vs sample parameter k (y = 10%, scale = {scale})");
    rule(60);
    for k in [0usize, 1, 2, 5, 10, 20, 30, 50] {
        let mut rates = Vec::new();
        for (_, profile) in &suite {
            for &seed in &seeds {
                let config = SwiftilesConfig::new(y, k).expect("valid y").seed(seed);
                let est = Swiftiles::new(config).estimate(profile, capacity);
                rates.push(100.0 * achieved_overbooking_rate(profile, est.rows_target, capacity));
            }
        }
        let mae = mae_to_target(&rates, 100.0 * y);
        println!("k = {k:>3} : MAE {:>5.1}%  {}", mae, bar(mae / 25.0, 32));
    }
    // Full sampling limit.
    let mut rates = Vec::new();
    for (_, profile) in &suite {
        let config = SwiftilesConfig::new(y, 10).expect("valid y").sample_all();
        let est = Swiftiles::new(config).estimate(profile, capacity);
        rates.push(100.0 * achieved_overbooking_rate(profile, est.rows_target, capacity));
    }
    let mae = mae_to_target(&rates, 100.0 * y);
    println!("k = all : MAE {:>5.1}%  {}", mae, bar(mae / 25.0, 32));
    rule(60);
    println!("paper: MAE 5.8% at k = 10; 5.5% fully sampled (one-shot scaling residual)");
}
