//! Table 1: tiling-strategy comparison — buffer utilization (adaptability)
//! and tiling tax (efficiency) for all four strategies, measured on a
//! representative subset of the suite.
//!
//! Usage: `cargo run --release -p tailors-bench --bin table1 [scale]`

use tailors_bench::{arch_at, fmt_count, parse_cli, profile_at, rule};
use tailors_core::swiftiles::SwiftilesConfig;
use tailors_core::TilingStrategy;

fn main() {
    let (scale, _) = parse_cli();
    let arch = arch_at(scale);
    let capacity = arch.tile_capacity();
    let strategies: [(&str, TilingStrategy); 4] = [
        ("Uniform shape", TilingStrategy::UniformShape),
        (
            "Prescient uniform shape",
            TilingStrategy::PrescientUniformShape,
        ),
        ("Uniform occupancy (PST)", TilingStrategy::UniformOccupancy),
        (
            "Overbooking (this work)",
            TilingStrategy::Overbooked(SwiftilesConfig::new(0.10, 10).expect("valid y")),
        ),
    ];
    let representative = ["rma10", "amazon0312", "webbase-1M", "roadNet-CA"];

    println!("Table 1 — tiling strategies (scale = {scale}, capacity = {capacity} nnz)");
    for name in representative {
        let wl = tailors_workloads::by_name(name).expect("suite tensor");
        let (_, profile) = profile_at(&wl, scale);
        println!();
        println!("{name}:");
        rule(84);
        println!(
            "{:<26} {:>12} {:>10} {:>16} {:>14}",
            "strategy", "utilization", "overbook%", "preproc tax", "matching tax"
        );
        rule(84);
        for (label, strategy) in &strategies {
            let choice = strategy.choose(&profile, capacity);
            println!(
                "{:<26} {:>11.1}% {:>9.1}% {:>16} {:>14}",
                label,
                100.0 * choice.mean_utilization,
                100.0 * choice.overbooking_rate,
                fmt_count(choice.tax.preprocessing_nnz as u128),
                fmt_count(choice.tax.matching_ops as u128),
            );
        }
        rule(84);
    }
    println!();
    println!("paper's qualitative Table 1: uniform = very low util / no tax;");
    println!("prescient = low util / high tax; PST = high util / very high tax;");
    println!("overbooking = high util / low tax.");
}
