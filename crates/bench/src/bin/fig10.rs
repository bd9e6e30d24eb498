//! Fig. 10: geomean speedup of ExTensor-OB over ExTensor-P as the target
//! overbooking rate y sweeps 0..100 %.
//!
//! The paper's curve: ~0.75x at y = 0 (pure estimation error), rising to a
//! peak around y = 22 %, then degrading as streaming overhead dominates,
//! far below 1x at y = 100 %. It also reports an idealized best-y-per-
//! workload oracle at 2.1x the fixed y = 10 % choice — printed here too.
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig10 [scale]`

use tailors_bench::{arch_at, bar, parse_cli, profile_at, rule};
use tailors_sim::Variant;
use tailors_tensor::stats::geomean;

fn main() {
    let (scale, _) = parse_cli();
    let arch = arch_at(scale);
    let ys = [
        0.0, 0.02, 0.05, 0.10, 0.15, 0.22, 0.30, 0.40, 0.50, 0.65, 0.80, 0.90, 1.0,
    ];

    // Generate each workload once; sweep y on the cached profiles.
    let suite: Vec<_> = tailors_workloads::suite()
        .iter()
        .map(|wl| profile_at(wl, scale))
        .collect();
    let p_runs: Vec<_> = suite
        .iter()
        .map(|(_, profile)| Variant::ExTensorP.run(profile, &arch))
        .collect();

    println!("Fig. 10 — geomean OB/P speedup vs overbooking target y (scale = {scale})");
    rule(64);
    let mut per_workload_best = vec![0.0f64; suite.len()];
    for &y in &ys {
        let mut ratios = Vec::new();
        for (i, (_, profile)) in suite.iter().enumerate() {
            let ob = Variant::ExTensorOB { y, k: 10 }.run(profile, &arch);
            let ratio = ob.speedup_over(&p_runs[i]);
            per_workload_best[i] = per_workload_best[i].max(ratio);
            ratios.push(ratio);
        }
        let g = geomean(&ratios).expect("non-empty suite");
        println!(
            "y = {:>5.1}% : {:>6.2}x  {}",
            100.0 * y,
            g,
            bar(g / 4.0, 32)
        );
    }
    rule(64);
    let oracle = geomean(&per_workload_best).expect("non-empty suite");
    println!(
        "idealized best-y-per-workload oracle: {oracle:.2}x over P (paper: 4.8x over P, \
         2.1x over fixed y = 10%)"
    );
    println!("paper's curve: ~0.75x at y=0, peak near y=22%, <<1x at y=100%");
}
