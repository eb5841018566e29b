//! Financial-workload scenario (the paper's motivation: HPC and financial
//! applications demand correctness): price a book of European options with
//! Black-Scholes and compare the cost of every protection level, from
//! unprotected to full Inter-Group RMT.
//!
//! ```text
//! cargo run --release --example black_scholes_rmt
//! ```

use gpu_rmt::kernels::{by_abbrev, run_original, run_rmt, Scale};
use gpu_rmt::rmt::TransformOptions;
use gpu_rmt::sim::DeviceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = by_abbrev("BlkSch").expect("BlackScholes is in the suite");
    let device = DeviceConfig::radeon_hd_7790();
    let scale = Scale::Paper;

    println!("Pricing a book of European options on the simulated HD 7790\n");
    let base = run_original(bench.as_ref(), scale, &device)?;
    println!(
        "{:<28} {:>9} cycles   {:>7}   avg {:>5.1} W",
        "unprotected",
        base.stats.cycles,
        "1.00x",
        base.stats.power.map(|p| p.avg_watts).unwrap_or(0.0)
    );

    let flavors = [
        ("Intra-Group+LDS", TransformOptions::intra_plus_lds()),
        ("Intra-Group-LDS", TransformOptions::intra_minus_lds()),
        (
            "Intra-Group+LDS (FAST)",
            TransformOptions::intra_plus_lds().with_swizzle(),
        ),
        ("Inter-Group", TransformOptions::inter()),
    ];
    for (name, opts) in flavors {
        let run = run_rmt(bench.as_ref(), scale, &device, &opts)?;
        println!(
            "{:<28} {:>9} cycles   {:>6.2}x   avg {:>5.1} W   detections {}",
            name,
            run.stats.cycles,
            run.stats.cycles as f64 / base.stats.cycles as f64,
            run.stats.power.map(|p| p.avg_watts).unwrap_or(0.0),
            run.detections
        );
    }

    println!(
        "\nEvery variant re-verified against the CPU reference pricer.\n\
         Note the paper's headline trade-off: larger spheres of replication\n\
         (Inter-Group covers the scalar unit and scheduler too) cost more."
    );
    Ok(())
}
