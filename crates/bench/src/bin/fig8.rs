//! Fig. 8: energy efficiency of ExTensor-P and ExTensor-OB normalized to
//! ExTensor-N on all 22 workloads, plus geometric means.
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig8 [scale]`

use tailors_bench::{parse_cli, rule, simulate_suite};
use tailors_tensor::stats::geomean;

fn main() {
    let (scale, knobs) = parse_cli();
    println!("Fig. 8 — energy efficiency normalized to ExTensor-N (scale = {scale})");
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
        let (ep, eob) = (r.energy_gain_p(), r.energy_gain_ob());
        println!(
            "{:<20} {:>11.2}x {:>11.2}x {:>11.2}x",
            r.workload.name,
            ep,
            eob,
            eob / ep
        );
        p.push(ep);
        ob.push(eob);
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
    println!("paper reports:       geomean OB/N = 22.5x, OB/P = 2.5x");
}
