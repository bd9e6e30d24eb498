//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **FIFO-region sizing** (§3.3.1): the paper sizes the streaming region
//!    statically to hide the parent round trip; too small starves the
//!    child, too large sacrifices resident reuse. We sweep the region
//!    fraction and report the retained-reuse side of that trade-off on a
//!    real overbooked traversal.
//! 2. **Overbooking without Tailors** (Fig. 3a): the same oversized tiling
//!    backed by plain buffets, which refetch whole tiles per traversal —
//!    demonstrating that the Tailors mechanism, not the larger tiles
//!    alone, is what makes overbooking profitable.
//!
//! Usage: `cargo run --release -p tailors-bench --bin ablation [scale]`

use tailors_bench::{arch_at, parse_cli, profile_at, rule};
use tailors_eddo::replay::replay_tailor;
use tailors_eddo::TailorConfig;
use tailors_sim::{simulate, Variant};

fn main() {
    let (scale, _) = parse_cli();

    // --- Ablation 1: FIFO-region size vs retained reuse. -----------------
    println!("Ablation 1 — FIFO-region size vs retained reuse (overbooked tile)");
    rule(64);
    let capacity = 4_096usize;
    let tile: Vec<u32> = (0..(capacity as u32 * 2)).collect(); // 2x overbooked
    let passes = 8;
    println!(
        "{:>12} {:>10} {:>14} {:>10}",
        "fifo region", "resident", "parent fetches", "reuse"
    );
    for frac in [1, 2, 5, 10, 25, 50, 75, 90] {
        let region = (capacity * frac / 100).clamp(1, capacity - 1);
        let config = TailorConfig::new(capacity, region).expect("valid config");
        let report = replay_tailor(&tile, config, passes).expect("replay");
        println!(
            "{:>11}% {:>10} {:>14} {:>9.1}%",
            frac,
            config.resident_region(),
            report.parent_fetches,
            100.0 * report.reuse_fraction()
        );
    }
    println!("larger streaming regions trade resident reuse for latency hiding");
    println!("(the latency-hiding benefit is a pipeline effect the per-element");
    println!("traffic model cannot show; the paper sizes for the round trip).");

    // --- Ablation 2: overbooked tiling with vs without Tailors. ----------
    println!();
    println!("Ablation 2 — overbooked tiling with Tailors vs plain buffets (scale = {scale})");
    rule(72);
    let arch = arch_at(scale);
    println!(
        "{:<20} {:>12} {:>14} {:>14}",
        "workload", "OB/P (tailors)", "OB/P (buffets)", "tailors gain"
    );
    rule(72);
    for name in ["amazon0312", "webbase-1M", "roadNet-CA", "rma10"] {
        let wl = tailors_workloads::by_name(name).expect("suite tensor");
        let (_, profile) = profile_at(&wl, scale);
        let p = Variant::ExTensorP.run(&profile, &arch);
        let ob_plan = Variant::default_ob().plan(&profile, &arch);
        let with_tailors = simulate(&profile, &arch, ob_plan);
        let mut buffet_plan = ob_plan;
        buffet_plan.overbooking = false; // same tiles, no streaming support
        let without = simulate(&profile, &arch, buffet_plan);
        println!(
            "{:<20} {:>13.2}x {:>13.2}x {:>13.2}x",
            name,
            with_tailors.speedup_over(&p),
            without.speedup_over(&p),
            without.cycles / with_tailors.cycles
        );
    }
    rule(72);
    println!("without Tailors, every traversal of an overbooked tile refetches the");
    println!("whole tile (Fig. 3a): speculative tiling alone is not enough.");
}
