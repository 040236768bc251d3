//! `repro` — regenerate the paper's tables and in-text experiments.
//!
//! ```text
//! repro table1 [--full]     Table 1 (k = 9, d <= 2)
//! repro table2 [--full]     Table 2 (k = 16, d <= 10)
//! repro capacity            E3: constant-memory wall at 2,048 monomials
//! repro counts              E4: 5k − 4 and 3k − 6 multiplication counts
//! repro ddcost              E5: double-double cost factor
//! repro ablate-cf           A1: two-stage vs from-scratch common factors
//! repro ablate-layout       A2: Mons layout vs row-major summation
//! repro batch               B1: batched engine sweep over P in {1,4,16,64,256}
//! repro cluster             C1: multi-device scaling over D in {1,2,4,8} at P = 256
//! repro session             S1: multi-system residency table and setup amortization
//! repro solve               Solver: scheduler x backend table (paths/s, occupancy, escalation)
//! repro newton              N1: device-resident Newton — corrector mode table, flag, hand-back and launch audits
//! repro syshard             R1: system (row) sharding — over-budget build + D-sweep
//! repro chaos               F1: fault injection — solves under device loss/corruption
//! repro trace               T1: deterministic tracing — span replay, stat reconciliation
//! repro serve               V1: multi-tenant solve service — fair queue, admission, cache
//! repro sparse              P1: sparse subsystem — packed keys, budget, mixed-cell path counts
//! repro multicore           multicore quality-up (companion experiment)
//! repro dims                working-dimension feasibility sweep (sections 3.1-3.2)
//! repro all [--full]        everything above, in order
//! ```
//!
//! `--full` times the paper's 100,000 CPU evaluations for real instead
//! of extrapolating from 200 (the GPU side is modeled either way, so
//! the default finishes in seconds with identical reported units).
//!
//! `--model-only` skips every wall-clock *check* (table rows still
//! show a measured column from one quick pass, marked unchecked;
//! `ddcost` and `multicore` are skipped under `all`), so every
//! PASS/FAIL printed is deterministic — what CI executes.
//!
//! Exit status: nonzero **only** on model-side check failures (the
//! deterministic table shape and the cluster scaling bar). Measured
//! checks are reported as `WARN (measured)` on a noisy host but never
//! fail the run — see `MEASURED_SHAPE_TOLERANCE` in the bench crate.

use polygpu_bench::*;
use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let model_only = args.iter().any(|a| a == "--model-only");
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let measured = if full { 100_000 } else { 200 };
    let mut model_ok = true;
    match cmd {
        "table1" => table(&table1_spec(), measured, model_only, &mut model_ok),
        "table2" => table(&table2_spec(), measured, model_only, &mut model_ok),
        "capacity" => capacity(),
        "counts" => counts(),
        "ddcost" => ddcost(),
        "ablate-cf" => ablate_cf(),
        "ablate-layout" => ablate_layout(),
        "batch" => batch(),
        "cluster" => cluster(&mut model_ok),
        "session" => session(&mut model_ok),
        "solve" => solve(&mut model_ok),
        "newton" => newton(&mut model_ok),
        "syshard" => syshard(&mut model_ok),
        "chaos" => chaos(&mut model_ok),
        "trace" => trace(&mut model_ok),
        "serve" => serve(&mut model_ok),
        "sparse" => sparse(&mut model_ok),
        "multicore" => multicore(),
        "dims" => dims(),
        "all" => {
            table(&table1_spec(), measured, model_only, &mut model_ok);
            table(&table2_spec(), measured, model_only, &mut model_ok);
            capacity();
            counts();
            if !model_only {
                ddcost();
            }
            ablate_cf();
            ablate_layout();
            batch();
            cluster(&mut model_ok);
            session(&mut model_ok);
            solve(&mut model_ok);
            newton(&mut model_ok);
            syshard(&mut model_ok);
            chaos(&mut model_ok);
            trace(&mut model_ok);
            serve(&mut model_ok);
            sparse(&mut model_ok);
            if !model_only {
                multicore();
            }
            dims();
        }
        other => {
            eprintln!("unknown subcommand `{other}`; see the doc comment for usage");
            return ExitCode::FAILURE;
        }
    }
    if model_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("model-side checks FAILED (deterministic regression, not host noise)");
        ExitCode::FAILURE
    }
}

fn table(spec: &TableSpec, measured: usize, model_only: bool, model_ok: &mut bool) {
    let reported = 100_000;
    // Model-only mode times a single quick CPU pass per row so the
    // table keeps its shape, but the measured columns are explicitly
    // marked unchecked and the measured shape check is skipped.
    let rows = run_table(spec, if model_only { 1 } else { measured }, reported);
    println!("{}", format_table(spec, &rows, reported));
    if model_only {
        println!(
            "(--model-only: the measured CPU column above comes from a single quick\n\
             pass and is UNCHECKED; only the modeled columns are meaningful here)"
        );
    }
    let model = table_shape_holds_model(&rows);
    if !model {
        *model_ok = false;
    }
    println!(
        "model shape check (speedup vs 2012 CPU grows with monomials, all > 1): {}",
        if model { "PASS" } else { "FAIL" }
    );
    if !model_only {
        // Measured check: median-of-5 timing with tolerance; a FAIL
        // here is host noise by construction and never fails the run.
        println!(
            "measured shape check (CPU grows, GPU flatter; {:.0}% tolerance): {}",
            MEASURED_SHAPE_TOLERANCE * 100.0,
            if table_shape_holds_measured(&rows) {
                "PASS"
            } else {
                "WARN (measured)"
            }
        );
    }
    println!();
}

fn batch() {
    let rows = batch_sweep(704, 9, 2, &[1, 4, 16, 64, 256]);
    println!("{}", format_batch_sweep(704, &rows));
    println!(
        "model: one batch pays 2 launch overheads and 2 PCIe latencies for P\n\
         evaluations, so the fixed cost per evaluation falls ~P-fold while the\n\
         kernel seconds stay proportional to the work; throughput approaches the\n\
         kernel-bound ceiling as P grows.\n"
    );
}

fn cluster(model_ok: &mut bool) {
    let rows = cluster_sweep(128, 9, 2, 256, &[1, 2, 4, 8]);
    println!("{}", format_cluster_sweep(128, 256, &rows));
    let d4_bar = rows
        .iter()
        .find(|r| r.d == 4)
        .map(|r| r.speedup_vs_d1 >= 3.0)
        .unwrap_or(false);
    if !d4_bar {
        *model_ok = false;
    }
    println!(
        "scaling check (D = 4 at least 3x the D = 1 throughput): {}",
        if d4_bar { "PASS" } else { "FAIL" }
    );
    println!(
        "model: shards run concurrently, so the cluster wall clock is the max\n\
         over devices; stream overlap hides each shard's PCIe transfers under\n\
         its kernels (double-buffered uploads), shaving the savings column off\n\
         the serialized sum. Imbalance 1.0 = every device equally busy.\n"
    );
}

fn session(model_ok: &mut bool) {
    let report = session_residency(4);
    println!("{}", format_session(&report));
    let bar = report.amortization.steady_state_ratio >= 5.0;
    if !bar {
        *model_ok = false;
    }
    println!(
        "residency check (resident stage >= 5x cheaper than re-encoding): {}",
        if bar { "PASS" } else { "FAIL" }
    );
    println!(
        "model: all resident systems' supports live in constant memory at once\n\
         (joint budget enforced at load), so switching the active system is one\n\
         modeled command-queue round trip instead of re-uploading supports and\n\
         coefficients and re-running the validation probe.\n"
    );
}

fn solve(model_ok: &mut bool) {
    let sweep = solve_sweep();
    println!("{}", format_solve_sweep(&sweep));
    let checks = [
        (
            "identity check (per-path and queue endpoints bit-identical across backends)",
            sweep.endpoints_identical,
        ),
        (
            "evaluation check (every pass evaluates paths + corrector iterations + attempts points)",
            sweep.evaluations_exact,
        ),
        (
            "occupancy check (auto-sized queue front > 0.8 occupied on the D = 4 cluster)",
            sweep.queue_occupancy_d4 > 0.8,
        ),
        (
            "escalation check (f64-unreachable tolerance retried and rescued in dd)",
            sweep.escalation_retried > 0 && sweep.escalation_rescued > 0,
        ),
    ];
    for (what, ok) in checks {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: one SolveRequest runs unchanged on every scheduler and backend;\n\
         both schedulers run the one path queue (per-path is a one-slot front),\n\
         so they are performance choices with bit-identical endpoints,\n\
         SlotPolicy::Auto sizes the queue front to D x per-device capacity from\n\
         EngineCaps, and escalation re-enters the same scheduler in double-double.\n"
    );
}

fn newton(model_ok: &mut bool) {
    let sweep = newton_sweep();
    println!("{}", format_newton_sweep(&sweep));
    for (what, ok) in sweep.checks() {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: DeviceResident fuses the corrector — evaluate, LU-factor,\n\
         back-substitute, update — against iterates that stay on the engine:\n\
         per Newton iteration two evaluation launches, one factor-and-solve\n\
         launch and one download of the O(P) convergence-flag vector\n\
         (FLAG_BYTES per live point) instead of every value and Jacobian.\n\
         The final download brings back the endpoints and each converged\n\
         point's evaluation there, which the path queue predicts from, so a\n\
         path asks the device for a predictor evaluation only at its first\n\
         step and every solve evaluates paths + iterations + attempts points\n\
         under either corrector. The arithmetic is the shared host driver's\n\
         either way, so endpoints stay bit-identical to CorrectorMode::Host\n\
         on every scheduler and backend; both probes reconcile the engine's\n\
         modeled D2H counter byte-for-byte, and its launch count exactly,\n\
         against the driver's charge log. `wall vs host` is a diagnostic, not\n\
         a gate: the modeled clock charges nothing for the Host corrector's\n\
         host-side LU, so at dim 2 Host still finishes first.\n"
    );
}

fn syshard(model_ok: &mut bool) {
    let sweep = syshard_sweep();
    println!("{}", format_syshard_sweep(&sweep));
    for (what, ok) in sweep.checks() {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: each device encodes only its rows' supports (~1/D of the bytes),\n\
         so the constant-memory wall lifts D-fold. Every device uploads every\n\
         point, evaluates its rows and downloads them to the host, which merges\n\
         them; no result crosses between devices, so a batch costs its slowest\n\
         device's round trip. Row sharding trades the point-capacity scaling of\n\
         `repro cluster` for memory scaling.\n"
    );
}

fn chaos(model_ok: &mut bool) {
    let sweep = chaos_sweep();
    println!("{}", format_chaos_sweep(&sweep));
    for (what, ok) in sweep.checks() {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: every run draws a seeded, replayable fault schedule (pure function\n\
         of seed x device x op). Cluster fleets retry struck shards with modeled\n\
         backoff, then re-plan around lost devices; whatever still reaches the\n\
         scheduler retries the affected round against live slot state, which is\n\
         the natural checkpoint. A run that outlives recovery ends in a typed\n\
         error — chaos never panics — and every run that finishes is\n\
         bit-identical to its fault-free reference.\n"
    );
}

fn trace(model_ok: &mut bool) {
    let sweep = trace_sweep();
    println!("{}", format_trace_sweep(&sweep));
    println!("telemetry snapshot of one clean traced run:\n");
    println!("{}", sweep.sample_telemetry);
    for (what, ok) in sweep.checks() {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: spans are timestamped by the *simulated* device, cluster, and\n\
         scheduler clocks, never the host's, so the same seed replays the exact\n\
         same Chrome-trace JSON byte-for-byte — chaos runs included. The span\n\
         tree is audited against the stats structs it narrates (root solve span\n\
         == modeled wall clock, cluster batch spans tile the engine wall, and on\n\
         a device-resident solve factor + backsub tile each fused launch and a\n\
         correct span's children sum to it), and a no-op tracer is asserted\n\
         free: endpoints, modeled timings, and the telemetry snapshot stay\n\
         bit-identical to the untraced solve.\n"
    );
}

fn serve(model_ok: &mut bool) {
    let sweep = serve_sweep();
    println!("{}", format_serve_sweep(&sweep));
    for (what, ok) in sweep.checks() {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: one residency fleet fronts every tenant. The weighted fair queue\n\
         drains by virtual finish tag (charge / weight, FIFO within a tenant,\n\
         ties by arrival), so service order is a pure function of the\n\
         submissions; admission sizes each request against the engine spec's\n\
         constant-memory budget *before* touching device state, so rejections\n\
         are typed and free; repeat targets are recognized by support hash\n\
         (verified by full equality) and served from residency, paying one\n\
         modeled command-queue switch instead of encode + upload + probe.\n\
         Under chaos the fleet fails over, shrinking admitted capacity —\n\
         jobs fail typed, the service itself never errors.\n"
    );
}

fn sparse(model_ok: &mut bool) {
    let sweep = sparse_sweep();
    println!("{}", format_sparse_sweep(&sweep));
    for (what, ok) in sweep.checks() {
        if !ok {
            *model_ok = false;
        }
        println!("{}: {}", what, if ok { "PASS" } else { "FAIL" });
    }
    println!(
        "model: ragged supports carry no uniform shape, so the Direct layout\n\
         rejects them typed; the packed encoding stores one header word plus\n\
         bit-packed radix exponent keys per monomial, sized by what the support\n\
         contains — it shrinks the footprint the row-sharded cluster otherwise\n\
         fights per-device, and fits Table-2-scale targets that Direct refuses.\n\
         Mixed-cell starts track the mixed volume (Bernstein's bound) instead\n\
         of the Bezout count: a deterministic lifting of the supports picks the\n\
         cells, each contributes a binomial start system solved exactly, and\n\
         the solver runs one scheduler pass per cell — start systems evaluate\n\
         on the host, so endpoints stay bit-identical across schedulers,\n\
         backends, and injected faults.\n"
    );
}

fn multicore() {
    let r = multicore::multicore_quality_up(256);
    println!(
        "### Multicore quality up (companion experiment, {} threads)\n",
        r.threads
    );
    println!("| run | seconds ({} evals) |", r.evals);
    println!("|-----|-------------------:|");
    println!("| double, 1 core | {:.4} |", r.f64_seq_s);
    println!("| double, {} cores | {:.4} |", r.threads, r.f64_par_s);
    println!("| double-double, 1 core | {:.4} |", r.dd_seq_s);
    println!("| double-double, {} cores | {:.4} |", r.threads, r.dd_par_s);
    println!();
    println!("parallel speedup (double): {:.2}x", r.f64_speedup());
    println!(
        "double-double cost factor: {:.2}x (paper companion: ~8)",
        r.dd_cost_factor()
    );
    println!(
        "quality-up ratio (dd parallel / double sequential): {:.2} -> {}\n",
        r.quality_up_ratio(),
        if r.quality_up_ratio() <= 1.0 {
            "QUALITY UP"
        } else {
            "not achieved on this host"
        }
    );
}

fn dims() {
    println!("### Working dimensions (paper sections 3.1-3.2): m = n, k = n/2\n");
    println!("| n | constant bytes (direct) | kernel-2 shared bytes (dd) | complex double | complex double-double |");
    println!("|--:|------------------------:|---------------------------:|:--------------:|:---------------------:|");
    for r in dimension_sweep(&[16, 30, 32, 40, 44, 56, 64, 70]) {
        println!(
            "| {} | {} | {} | {} | {} |",
            r.n,
            r.constant_bytes,
            r.shared_bytes,
            if r.fits_f64 { "fits" } else { "REFUSED" },
            if r.fits_dd { "fits" } else { "REFUSED" },
        );
    }
    println!("\npaper: dimensions 30-40 fit the constant memory; with double-double the\nshared memory still allows dimensions up to 70 (k <= n/2) -- but constant\nmemory becomes the binding constraint first, motivating the compact encoding.\n");
}

fn capacity() {
    println!("### E3 — constant-memory capacity (k = 16, n = 32)\n");
    println!("| #monomials | positions+exponents bytes | direct encoding | compact encoding |");
    println!("|-----------:|--------------------------:|:---------------:|:----------------:|");
    for (total, direct, compact, bytes) in capacity_sweep(&[704, 1024, 1536, 2048, 2560]) {
        println!(
            "| {} | {} | {} | {} |",
            total,
            bytes,
            if direct { "fits" } else { "REFUSED" },
            if compact { "fits" } else { "REFUSED" }
        );
    }
    println!(
        "\npaper: \"the capacity of the constant memory was not sufficient to hold\n\
         the exponents and positions of all 2,048 monomials\" — reproduced by the\n\
         direct column; the compact column is the paper's proposed compression.\n"
    );
}

fn counts() {
    println!("### E4 — multiplications per thread of the monomial kernel (kernels 1 + 2)\n");
    println!("| k | measured | (k-1) + (5k-4) | kernel 2 (5k-4) | Speelpenning part (3k-6) | common factor (k-1) |");
    println!("|--:|---------:|---------------:|----------------:|-------------------------:|--------------------:|");
    for (k, measured, formula, spl, cf) in count_multiplications(&[2, 3, 5, 9, 16, 32]) {
        let fused = cf + formula;
        println!("| {k} | {measured} | {fused} | {formula} | {spl} | {cf} |");
    }
    println!();
}

fn ddcost() {
    let (dd, qd) = measure_cost_factors(2_000_000);
    println!("### E5 — extended-precision arithmetic cost factors (complex multiply)\n");
    println!("| precision | measured factor | reference |");
    println!("|-----------|----------------:|-----------|");
    println!("| double | 1.00 | — |");
    println!("| double-double | {dd:.2} | ~8 (Verschelde-Yoffe, PASCO 2010) |");
    println!("| quad-double | {qd:.2} | O(10^2) (QD library) |");
    println!();
}

fn ablate_cf() {
    println!(
        "### A1 — monomial kernel's common factors: two-stage table (paper) vs from-scratch\n"
    );
    println!("| d | variant | complex muls | divergent segments | modeled kernel us | bound |");
    println!("|--:|---------|-------------:|-------------------:|------------------:|-------|");
    for d in [2u16, 5, 10] {
        let ab = ablate_common_factor(d);
        for (name, r) in [
            ("two-stage", &ab.two_stage),
            ("from-scratch", &ab.from_scratch),
        ] {
            println!(
                "| {} | {} | {} | {} | {:.2} | {:?} |",
                d,
                name,
                r.counters.flops / 6,
                r.counters.divergent_segments,
                r.timing.kernel_seconds * 1e6,
                r.timing.bound
            );
        }
    }
    println!(
        "model: both variants run inside the fused monomial kernel, whose time at\n\
         this shape is set by the scattered Mons stores (DRAM bandwidth), so the\n\
         from-scratch stage's extra multiplications and divergence cost no modeled\n\
         time here; they show in the muls and divergence columns.\n"
    );
}

fn ablate_layout() {
    use polygpu_polysys::UniformShape;
    println!("### A2 — kernel 3 input layout: paper's Mons vs row-major\n");
    println!("| m | layout | global transactions | modeled kernel us |");
    println!("|--:|--------|--------------------:|------------------:|");
    for m in [22usize, 32, 48] {
        let shape = UniformShape::square(32, m, 9, 2);
        let (paper, row) = alt_layout::compare_sum_layouts(shape, m as u64);
        println!(
            "| {} | Mons (paper) | {} | {:.2} |",
            m,
            paper.counters.global_transactions,
            paper.timing.kernel_seconds * 1e6
        );
        println!(
            "| {} | row-major | {} | {:.2} |",
            m,
            row.counters.global_transactions,
            row.timing.kernel_seconds * 1e6
        );
    }
    println!();
}
