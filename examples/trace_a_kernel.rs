//! Debugging workflow: trace one wavefront of an RMT-transformed kernel
//! and watch the redundant pair machinery execute — the ID remapping
//! prologue, the lockstep producer/consumer communication, and the
//! protected store.
//!
//! ```text
//! cargo run --release --example trace_a_kernel
//! ```

use gpu_rmt::ir::KernelBuilder;
use gpu_rmt::rmt::{transform, RmtLauncher, TransformOptions};
use gpu_rmt::sim::{Arg, Device, DeviceConfig, LaunchConfig, TraceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // out[i] = in[i] ^ i
    let mut b = KernelBuilder::new("xor_id");
    let inp = b.buffer_param("in");
    let out = b.buffer_param("out");
    let gid = b.global_id(0);
    let ia = b.elem_addr(inp, gid);
    let v = b.load_global(ia);
    let w = b.xor_u32(v, gid);
    let oa = b.elem_addr(out, gid);
    b.store_global(oa, w);
    let kernel = b.finish();

    let rmt = transform(&kernel, &TransformOptions::intra_plus_lds())?;
    println!("== transformed kernel ==\n{}", rmt.kernel);

    // Trace wavefront 0 of work-group 0 of the transformed launch.
    let mut dev = Device::new(DeviceConfig::small_test());
    let ib = dev.create_buffer(128 * 4);
    let ob = dev.create_buffer(128 * 4);
    dev.write_u32s(ib, &(0..128).map(|i| i * 7).collect::<Vec<_>>());

    let base = LaunchConfig::new_1d(128, 64)
        .arg(Arg::Buffer(ib))
        .arg(Arg::Buffer(ob))
        .trace(TraceConfig::wavefront(0, 0, 64));
    let run = RmtLauncher::new().launch(&mut dev, &rmt, &base)?;
    let trace = run.stats.trace.expect("tracing was requested");
    println!("== first 64 records of work-group 0, wavefront 0 ==\n");
    print!("{}", trace.render());
    println!(
        "\nkernel ran in {} cycles; detections buffer = {}",
        run.stats.cycles, run.detections
    );
    println!(
        "\nNote the prologue (global_id masking and shifting), the LDS\n\
         communication stores under the producer mask, and the comparison +\n\
         protected store under the consumer mask — Section 6.2 of the paper,\n\
         instruction by instruction."
    );
    assert_eq!(dev.read_u32s(ob)[10], (10 * 7) ^ 10);
    Ok(())
}
