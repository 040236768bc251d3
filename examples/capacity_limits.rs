//! E3 and the compact-encoding extension: the constant-memory wall.
//!
//! "Increasing the number of monomials to 2,048 in Table 1 and 2 would
//! have yielded a speedup of more than 20, but the capacity of the
//! constant memory was not sufficient to hold the exponents and
//! positions of all 2,048 monomials." (§4)
//!
//! This example sweeps the monomial count at `k = 16`, shows exactly
//! where the direct `u8 + u8` encoding stops fitting, and then lifts
//! the wall with the paper's proposed compact encoding (nibble-packed
//! exponents). Last, it shows the second wall a batched engine meets:
//! the card's global memory, which bounds the points an engine may be
//! sized for.
//!
//! ```text
//! cargo run --release --example capacity_limits
//! ```

use polygpu::prelude::*;

fn try_setup(total: usize, encoding: EncodingKind) -> Result<usize, String> {
    let params = BenchmarkParams {
        n: 32,
        m: total / 32,
        k: 16,
        d: 10,
        seed: 3,
    };
    let system = random_system::<f64>(&params);
    match GpuEvaluator::new(
        &system,
        GpuOptions {
            encoding,
            ..Default::default()
        },
    ) {
        Ok(gpu) => Ok(gpu.constant_bytes_used()),
        Err(e) => Err(e.to_string()),
    }
}

fn main() {
    let device = DeviceSpec::tesla_c2050();
    println!(
        "device constant memory: {} bytes ({} reserved for launch metadata)",
        device.constant_mem,
        device.constant_mem - device.constant_budget()
    );
    println!("\nk = 16 monomials cost 2 x 16 bytes each in the direct encoding.\n");
    println!("| monomials | direct encoding | compact encoding |");
    println!("|----------:|-----------------|------------------|");
    let mut wall = None;
    for total in [704usize, 1024, 1536, 2048, 2560, 2720] {
        let direct = try_setup(total, EncodingKind::Direct);
        let compact = try_setup(total, EncodingKind::Compact);
        let fmt = |r: &Result<usize, String>| match r {
            Ok(bytes) => format!("fits ({bytes} B)"),
            Err(_) => "REFUSED".to_string(),
        };
        println!("| {total} | {} | {} |", fmt(&direct), fmt(&compact));
        if direct.is_err() && wall.is_none() {
            wall = Some(total);
        }
    }
    let wall = wall.expect("the wall exists on a C2050");
    println!("\ndirect-encoding wall first hit at {wall} monomials — the paper's E3.");
    assert_eq!(wall, 2048, "must match the paper's observed limit");

    // The extension the paper proposed: verify the compact encoding
    // not only fits but computes the same values.
    let params = BenchmarkParams {
        n: 32,
        m: 2048 / 32,
        k: 16,
        d: 10,
        seed: 3,
    };
    let system = random_system::<f64>(&params);
    let mut compact_gpu = GpuEvaluator::new(
        &system,
        GpuOptions {
            encoding: EncodingKind::Compact,
            ..Default::default()
        },
    )
    .expect("compact encoding lifts the wall");
    let x = random_point::<f64>(32, 11);
    let gpu_result = compact_gpu.evaluate(&x);
    let mut cpu = AdEvaluator::new(system).unwrap();
    let cpu_result = cpu.evaluate(&x);
    assert_eq!(gpu_result.values, cpu_result.values);
    println!(
        "compact encoding runs the 2,048-monomial system ({} constant bytes) — \
         values bit-identical to the CPU reference.",
        compact_gpu.constant_bytes_used()
    );
    println!(
        "decode overhead: {} extra integer ops charged by the simulator, hidden \
         behind the multiplications exactly as the paper predicted.",
        2 * 2048 * 16 * 2 // 2 iops per factor read, 2 reads per eval (kernels 1 and 2)
    );

    // Global memory: a batched engine models buffers for every point
    // of its capacity, about 0.8 MB per point on Table 1's largest
    // row. A capacity past the card's 3 GiB is refused at build time,
    // typed, before anything is backed; one that fits costs the host
    // only the points it evaluates.
    let table1 = random_system::<f64>(&BenchmarkParams {
        n: 32,
        m: 48,
        k: 9,
        d: 2,
        seed: 3,
    });
    println!(
        "\ndevice global memory: {} bytes; Table 1's 1,536-monomial row:\n",
        device.global_mem
    );
    println!("| capacity | batched engine |");
    println!("|---------:|----------------|");
    for capacity in [64usize, 3_888, 3_889, 100_000] {
        let row = match BatchGpuEvaluator::new(&table1, capacity, GpuOptions::default()) {
            Ok(engine) => format!(
                "fits ({} B modeled, {} B backed on the host)",
                engine.allocated_bytes(),
                engine.backed_bytes()
            ),
            Err(e @ SetupError::GlobalOverflow { .. }) => format!("REFUSED: {e}"),
            Err(e) => panic!("unexpected setup error: {e}"),
        };
        println!("| {capacity} | {row} |");
    }
    let huge = Engine::builder()
        .backend(Backend::GpuBatch {
            capacity: usize::MAX,
        })
        .build(&table1);
    assert!(matches!(
        huge.map(drop),
        Err(BuildError::Setup(SetupError::GlobalOverflow { .. }))
    ));
    println!("\na capacity of usize::MAX fails the same way, through the builder.");
}
