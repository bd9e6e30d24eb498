//! Fig. 9: the cost side of overbooking at y = 10 %.
//!
//! (a) per-workload fraction of DRAM traffic spent streaming bumped data
//!     through Tailors (paper average: 26 %);
//! (b) data reused vs bumped-data percentage, with their correlation
//!     (paper: strongly inversely correlated).
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig9 [scale]`

use tailors_bench::{bar, parse_cli, rule, simulate_suite};
use tailors_tensor::stats::pearson;

fn main() {
    let (scale, knobs) = parse_cli();
    let runs = simulate_suite(scale, &knobs);

    println!("Fig. 9a — DRAM traffic share of overbooking streaming (scale = {scale})");
    rule(70);
    println!(
        "{:<20} {:>10} {:>10}  overhead bar",
        "workload", "baseline%", "overhead%"
    );
    rule(70);
    let mut overheads = Vec::new();
    for r in &runs {
        let ovh = r.ob.dram.overhead_fraction();
        overheads.push(ovh);
        println!(
            "{:<20} {:>9.1}% {:>9.1}%  {}",
            r.workload.name,
            100.0 * (1.0 - ovh),
            100.0 * ovh,
            bar(ovh, 24)
        );
    }
    rule(70);
    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("average overhead: {:.1}%   (paper: 26%)", 100.0 * avg);

    println!();
    println!("Fig. 9b — data reused vs bumped data (y = 10%)");
    rule(56);
    println!("{:<20} {:>12} {:>12}", "workload", "bumped %", "reused %");
    rule(56);
    let mut bumped = Vec::new();
    let mut reused = Vec::new();
    for r in &runs {
        let b = 100.0 * r.ob.reuse.bumped_fraction;
        let u = 100.0 * r.ob.reuse.reused_fraction;
        bumped.push(b);
        reused.push(u);
        println!("{:<20} {:>11.1}% {:>11.1}%", r.workload.name, b, u);
    }
    rule(56);
    match pearson(&bumped, &reused) {
        Some(rho) => {
            println!("correlation(bumped, reused) = {rho:.3}   (paper: strong inverse correlation)")
        }
        None => println!("correlation undefined (degenerate data)"),
    }
}
