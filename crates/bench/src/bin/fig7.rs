//! Fig. 7: speedup of ExTensor-P and ExTensor-OB relative to ExTensor-N
//! on all 22 workloads, plus geometric means.
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig7 [scale]`

use tailors_bench::{parse_cli, rule, simulate_suite};
use tailors_tensor::stats::geomean;

fn main() {
    let (scale, knobs) = parse_cli();
    println!("Fig. 7 — speedup over ExTensor-N (scale = {scale})");
    rule(66);
    println!(
        "{:<20} {:>12} {:>12} {:>12}",
        "workload", "ExTensor-P", "ExTensor-OB", "OB / P"
    );
    rule(66);
    let runs = simulate_suite(scale, &knobs);
    let mut p = Vec::new();
    let mut ob = Vec::new();
    for r in &runs {
        let (sp, sob) = (r.speedup_p(), r.speedup_ob());
        println!(
            "{:<20} {:>11.2}x {:>11.2}x {:>11.2}x",
            r.workload.name,
            sp,
            sob,
            sob / sp
        );
        p.push(sp);
        ob.push(sob);
    }
    rule(66);
    let gp = geomean(&p).expect("non-empty suite");
    let gob = geomean(&ob).expect("non-empty suite");
    println!(
        "{:<20} {:>11.2}x {:>11.2}x {:>11.2}x",
        "geomean",
        gp,
        gob,
        gob / gp
    );
    println!();
    println!("paper reports:       geomean OB/N = 52.7x, OB/P = 2.3x");
}
