//! Table 2: characteristics of the 22 evaluation tensors, with the actual
//! statistics of the generated synthetic stand-ins alongside the paper's
//! targets.
//!
//! Usage: `cargo run --release -p tailors-bench --bin table2 [scale]`

use tailors_bench::{fmt_count, generate_cached, parse_cli, rule};

fn main() {
    let (scale, _) = parse_cli();
    println!("Table 2 — workload characteristics (scale = {scale})");
    rule(92);
    println!(
        "{:<20} {:>14} {:>12} {:>12} {:>12} {:>12}",
        "tensor", "dimensions", "target nnz", "actual nnz", "paper spars.", "actual spars."
    );
    rule(92);
    for wl in tailors_workloads::suite() {
        let scaled = wl.scaled(scale);
        let m = generate_cached(&scaled);
        println!(
            "{:<20} {:>6}x{:<7} {:>12} {:>12} {:>11.5}% {:>11.5}%",
            wl.name,
            scaled.nrows,
            scaled.ncols,
            fmt_count(scaled.target_nnz as u128),
            fmt_count(m.nnz() as u128),
            100.0 * wl.paper_sparsity,
            100.0 * m.sparsity(),
        );
    }
    rule(92);
}
