//! Fig. 11: achieved overbooking rate when tiling with the raw initial
//! estimate T_initial vs with the Swiftiles-scaled prediction T_target
//! (y = 10 %, all tiles sampled).
//!
//! The paper: the initial estimate averages 19.9 % overbooking with an MAE
//! of 15.6 %; after scaling the average is 10.6 % with an MAE of 5.8 %.
//!
//! Usage: `cargo run --release -p tailors-bench --bin fig11 [scale]`

use tailors_bench::{arch_at, parse_cli, profile_at, rule};
use tailors_core::swiftiles::{achieved_overbooking_rate, Swiftiles, SwiftilesConfig};
use tailors_tensor::stats::mae_to_target;

fn main() {
    let (scale, _) = parse_cli();
    let arch = arch_at(scale);
    let capacity = arch.tile_capacity();
    let y = 0.10;
    let config = SwiftilesConfig::new(y, 10).expect("valid y").sample_all();

    println!("Fig. 11 — overbooking rate: initial estimate vs Swiftiles (scale = {scale})");
    rule(62);
    println!(
        "{:<20} {:>16} {:>16}",
        "workload", "initial rate", "scaled rate"
    );
    rule(62);
    let mut initial = Vec::new();
    let mut scaled = Vec::new();
    for wl in tailors_workloads::suite() {
        let (_, profile) = profile_at(&wl, scale);
        let est = Swiftiles::new(config).estimate(&profile, capacity);
        let r0 = achieved_overbooking_rate(&profile, est.rows_initial, capacity);
        let r1 = achieved_overbooking_rate(&profile, est.rows_target, capacity);
        initial.push(100.0 * r0);
        scaled.push(100.0 * r1);
        println!(
            "{:<20} {:>15.1}% {:>15.1}%",
            wl.name,
            100.0 * r0,
            100.0 * r1
        );
    }
    rule(62);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "initial estimate: mean {:.1}%, MAE {:.1}%   (paper: 19.9%, 15.6%)",
        mean(&initial),
        mae_to_target(&initial, 100.0 * y)
    );
    println!(
        "after scaling   : mean {:.1}%, MAE {:.1}%   (paper: 10.6%,  5.8%)",
        mean(&scaled),
        mae_to_target(&scaled, 100.0 * y)
    );
}
