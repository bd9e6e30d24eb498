//! Fig. 1: tile-occupancy distribution for a fixed large coordinate-space
//! tile size on a high-variability SuiteSparse-style tensor.
//!
//! The paper partitions a SuiteSparse tensor into 51.4 M-element tiles and
//! observes: maximum occupancy (31.6 K) more than three orders of magnitude
//! below the tile size, and a 90th-percentile occupancy more than 15x below
//! the maximum. This binary reproduces those statistics on the synthetic
//! webbase-1M stand-in.
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig1 [scale]`

use tailors_bench::{bar, parse_cli, profile_at, rule};
use tailors_tensor::stats::{summarize, Histogram};
use tailors_tensor::tiling::RowPanels;

fn main() {
    let (scale, _) = parse_cli();
    let wl = tailors_workloads::by_name("webbase-1M").expect("suite tensor");
    let (scaled, profile) = profile_at(&wl, scale);
    // The paper's 51.4M-element tile size, scaled with the workload.
    let tile_size = (51_400_000.0 * scale) as u64;
    let rows = ((tile_size / profile.ncols().max(1) as u64).max(1)) as usize;
    let panels = RowPanels::new(&profile, rows);
    let occ: Vec<u64> = panels.occupancies().collect();
    let s = summarize(&occ).expect("non-empty tiling");

    println!(
        "Fig. 1 — tile occupancy distribution ({}, scale = {scale})",
        scaled.name
    );
    rule(64);
    println!("uncompressed tile size : {}", panels.tile_size());
    println!("number of tiles        : {}", s.count);
    println!("maximum occupancy      : {}", s.max);
    println!("90th pct occupancy     : {}", s.p90);
    println!("99th pct occupancy     : {}", s.p99);
    println!("median occupancy       : {}", s.median);
    println!(
        "size / max occupancy   : {:.0}x   (paper: >1000x)",
        panels.tile_size() as f64 / s.max.max(1) as f64
    );
    println!(
        "max / 90th pct         : {:.1}x   (paper: >15x)",
        s.max as f64 / s.p90.max(1) as f64
    );
    rule(64);
    println!("histogram (fraction of tiles per occupancy bin):");
    let h = Histogram::new(&occ, 16);
    for ((start, _), frac) in h.iter().zip(h.fractions()) {
        println!("{:>10} | {} {:.1}%", start, bar(frac, 40), 100.0 * frac);
    }
}
