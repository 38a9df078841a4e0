//! The full reproduction pass: regenerates every table and figure of the
//! paper's evaluation over all twelve mixes at publication windows and
//! prints them in order. `EXPERIMENTS.md` records one run of this binary.
//!
//! ```sh
//! cargo run -p stacksim-bench --release --bin reproduce [-- OPTIONS]
//! ```
//!
//! Options:
//!
//! * `--only <experiment>` — run just the named experiment (repeatable;
//!   `--list` prints the names).
//! * `--jobs <n>` — worker threads for the parallel run engine (default,
//!   and `0`: all available cores).
//! * `--out <dir>` — save one JSON metric tree per experiment plus a
//!   `manifest.json` into `<dir>` (schema in `docs/METRICS.md`).
//! * `--baseline <dir>` — diff this run's metrics against a directory
//!   previously saved with `--out`; any metric diverging beyond the
//!   tolerance makes the process exit non-zero.
//! * `--tol <rel>` — relative tolerance for `--baseline` comparisons
//!   (default 1e-9; the simulator is deterministic, so matching windows
//!   agree exactly).
//! * `--quick` — use the short CI window instead of publication windows
//!   (for artifact smoke runs; baselines must use matching windows).
//! * `--timings <file>` — write a JSON timing artifact: wall time per
//!   experiment plus the fraction of simulated cycles the quiescence
//!   fast-forward skipped (memoized experiments simulate nothing new, so
//!   their fraction is `null`).
//! * `--machines <dir>` — load the six named machines from scenario files
//!   in `<dir>` instead of the copies compiled into the binary (the
//!   shipped `scenarios/` directory is picked up automatically when
//!   present; see `docs/SCENARIOS.md`).
//! * `--store <dir>` — durable result store (created if absent): every
//!   untraced simulation point is first looked up in `<dir>` and, on a
//!   miss, persisted after simulating, so a second run — even from a
//!   fresh process — serves its points from disk instead of
//!   re-simulating (`docs/STORE.md`).
//! * `--scenario <file>` — instead of the experiment registry, run every
//!   mix on the one machine described by the scenario file and report
//!   per-mix HMIPC (works with `--out`/`--baseline`/`--quick`).
//! * `--check-protocol` — trace DRAM command streams during every run and
//!   audit them against the JEDEC-style timing invariants after the
//!   experiments finish (see `docs/TESTING.md`); any violation makes the
//!   process exit non-zero. Tracing changes no simulated behaviour, but
//!   traced windows are not memo-compatible with untraced baselines.
//!   Experiments that simulate outside the run memo (they drive `System`
//!   directly) are not traced; a second line names them.
//! * `--list` — list experiment names and exit.
//!
//! Every simulation point is a pure function of its configuration, so the
//! parallel engine's output is bit-identical to a sequential run and to any
//! `--jobs` value; shared baselines are memoized and simulate exactly once.
//! Per-point progress is reported on stderr as the matrix drains.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use stacksim::experiments::{
    ablation_cwf, ablation_energy, ablation_interleave, ablation_page_policy, ablation_probing,
    ablation_scheduler, ablation_smart_refresh, energy_table, figure4, figure6a, figure6b, figure7,
    figure9, headline, probing_table, table2a, table2a_table, table2b, table2b_table,
    thermal_check, Sweep,
};
use stacksim::runner::{RunConfig, RunPoint, Session};
use stacksim::scenario::{Machines, Scenario};
use stacksim::SystemConfig;
use stacksim_bench::full_run;
use stacksim_bench::obs;
use stacksim_simcheck::protocol::{check_trace, ProtocolParams};
use stacksim_stats::{MetricsSink, Table};
use stacksim_workload::{Benchmark, Mix};

/// Everything an experiment closure needs: the session (machine set,
/// memo, store), the run window and the mix sets.
struct Ctx {
    session: Session,
    run: RunConfig,
    mixes: Vec<&'static Mix>,
    hv: Vec<&'static Mix>,
}

type ExpResult = Result<(String, MetricsSink), Box<dyn std::error::Error>>;
type ExpFn = fn(&Ctx) -> ExpResult;

/// Metric tree of a Figure 7 or Figure 9 variant sweep.
fn sweep_sink(name: &'static str, r: &Sweep) -> MetricsSink {
    let mut sink = MetricsSink::new(name);
    for (mix, pcts) in &r.rows {
        for (label, pct) in r.labels.iter().zip(pcts) {
            sink.gauge(format!("{}.{label}_pct", mix.name), *pct);
        }
    }
    if let Some(gm) = &r.gm_hvh_pct {
        for (label, pct) in r.labels.iter().zip(gm) {
            sink.gauge(format!("gm_hvh.{label}_pct"), *pct);
        }
    }
    for (label, pct) in r.labels.iter().zip(&r.gm_all_pct) {
        sink.gauge(format!("gm_all.{label}_pct"), *pct);
    }
    sink
}

/// One Figure 7 panel: the MSHR scaling sweep on `base`.
fn figure7_panel(ctx: &Ctx, name: &'static str, base: &SystemConfig) -> ExpResult {
    let r = figure7(&ctx.session, base, &ctx.run, &ctx.mixes)?;
    Ok((r.table().to_string(), sweep_sink(name, &r)))
}

/// One Figure 9 panel: the scalable-MHA sweep on `base`, plus the VBF's
/// probes per access.
fn figure9_panel(ctx: &Ctx, name: &'static str, base: &SystemConfig) -> ExpResult {
    let r = figure9(&ctx.session, base, &ctx.run, &ctx.mixes)?;
    let mut sink = sweep_sink(name, &r.sweep);
    sink.gauge("vbf_probes_per_access", r.vbf_probes_per_access);
    Ok((r.sweep.table().to_string(), sink))
}

/// Metric tree for a single-number ablation.
fn scalar_sink(name: &'static str, metric: &'static str, value: f64) -> MetricsSink {
    let mut sink = MetricsSink::new(name);
    sink.gauge(metric, value);
    sink
}

/// The experiment registry, in the paper's presentation order. Each entry
/// renders its tables/figures to a string for the console and reduces its
/// result to a [`MetricsSink`] for `--out` / `--baseline`.
const EXPERIMENTS: &[(&str, ExpFn)] = &[
    ("table2a", |ctx| {
        let benchmarks: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
        let rows = table2a(&ctx.session, &ctx.run, &benchmarks)?;
        let mut sink = MetricsSink::new("table2a");
        for row in &rows {
            sink.gauge(format!("{}.mpki", row.benchmark.name), row.measured_mpki);
        }
        Ok((table2a_table(&rows).to_string(), sink))
    }),
    ("table2b", |ctx| {
        let rows = table2b(&ctx.session, &ctx.run, &ctx.mixes)?;
        let mut sink = MetricsSink::new("table2b");
        for row in &rows {
            sink.gauge(format!("{}.hmipc", row.mix.name), row.measured_hmipc);
        }
        Ok((table2b_table(&rows).to_string(), sink))
    }),
    ("figure4", |ctx| {
        let r = figure4(&ctx.session, &ctx.run, &ctx.mixes)?;
        let mut sink = MetricsSink::new("figure4");
        for row in &r.rows {
            sink.gauge(format!("{}.hmipc_2d", row.mix.name), row.hmipc_2d);
            sink.gauge(format!("{}.speedup_3d", row.mix.name), row.speedup_3d);
            sink.gauge(format!("{}.speedup_wide", row.mix.name), row.speedup_wide);
            sink.gauge(format!("{}.speedup_fast", row.mix.name), row.speedup_fast);
        }
        for (i, col) in ["3d", "wide", "fast"].iter().enumerate() {
            if let Some(gm) = r.gm_hvh {
                sink.gauge(format!("gm_hvh.{col}"), gm[i]);
            }
            sink.gauge(format!("gm_all.{col}"), r.gm_all[i]);
        }
        Ok((r.table().to_string(), sink))
    }),
    ("figure6a", |ctx| {
        let r = figure6a(&ctx.session, &ctx.run, &ctx.mixes)?;
        let mut sink = MetricsSink::new("figure6a");
        for c in &r.grid {
            sink.gauge(format!("{}mc_{}r.hvh", c.mcs, c.ranks), c.speedup_hvh);
            sink.gauge(format!("{}mc_{}r.all", c.mcs, c.ranks), c.speedup_all);
        }
        for &(bytes, hvh, all) in &r.extra_l2 {
            sink.gauge(format!("extra_l2_{}kb.hvh", bytes >> 10), hvh);
            sink.gauge(format!("extra_l2_{}kb.all", bytes >> 10), all);
        }
        Ok((r.table().to_string(), sink))
    }),
    ("figure6b", |ctx| {
        let r = figure6b(&ctx.session, &ctx.run, &ctx.mixes)?;
        let mut sink = MetricsSink::new("figure6b");
        for c in &r.cells {
            sink.gauge(
                format!("{}mc_rb{}.hvh", c.mcs, c.row_buffers),
                c.speedup_hvh,
            );
            sink.gauge(
                format!("{}mc_rb{}.all", c.mcs, c.row_buffers),
                c.speedup_all,
            );
        }
        Ok((r.table().to_string(), sink))
    }),
    ("figure7-dual", |ctx| {
        figure7_panel(ctx, "figure7-dual", &ctx.session.machines().dual_mc)
    }),
    ("figure7-quad", |ctx| {
        figure7_panel(ctx, "figure7-quad", &ctx.session.machines().quad_mc)
    }),
    ("figure9-dual", |ctx| {
        figure9_panel(ctx, "figure9-dual", &ctx.session.machines().dual_mc)
    }),
    ("figure9-quad", |ctx| {
        figure9_panel(ctx, "figure9-quad", &ctx.session.machines().quad_mc)
    }),
    ("headline", |ctx| {
        let r = headline(&ctx.session, &ctx.run, &ctx.hv)?;
        let mut sink = MetricsSink::new("headline");
        sink.gauge("fast_over_2d", r.fast_over_2d);
        sink.gauge("aggressive_over_fast", r.aggressive_over_fast);
        sink.gauge("mha_over_aggressive", r.mha_over_aggressive);
        sink.gauge("total_over_2d", r.total_over_2d);
        Ok((r.table().to_string(), sink))
    }),
    ("thermal", |_ctx| {
        let r = thermal_check(65.0, 8);
        let mut sink = MetricsSink::new("thermal");
        sink.gauge("max_c", r.report.max_c);
        if let Some(t) = r.report.dram_max_c {
            sink.gauge("dram_max_c", t);
        }
        for (i, t) in r.report.layer_max_c.iter().enumerate() {
            sink.gauge(format!("layer{i}.max_c"), *t);
        }
        sink.counter("within_limit", u64::from(r.within_limit));
        Ok((r.table().to_string(), sink))
    }),
    ("ablation-scheduler", |ctx| {
        let v = ablation_scheduler(&ctx.session, &ctx.run, &ctx.hv)?;
        Ok((
            format!("Ablation: FR-FCFS over FIFO (quad-MC, GM H/VH): {v:.3}x\n"),
            scalar_sink("ablation-scheduler", "speedup", v),
        ))
    }),
    ("ablation-interleave", |ctx| {
        let v = ablation_interleave(&ctx.session, &ctx.run, &ctx.hv)?;
        Ok((
            format!("Ablation: page over line L2 interleave (quad-MC, GM H/VH): {v:.3}x\n"),
            scalar_sink("ablation-interleave", "speedup", v),
        ))
    }),
    ("ablation-cwf", |ctx| {
        let v = ablation_cwf(&ctx.session, &ctx.run, &ctx.hv)?;
        Ok((
            format!(
                "Ablation: critical-word-first over full-line delivery (narrow-bus 3D, GM H/VH): {v:.3}x\n"
            ),
            scalar_sink("ablation-cwf", "speedup", v),
        ))
    }),
    ("ablation-page-policy", |ctx| {
        let v = ablation_page_policy(&ctx.session, &ctx.run, &ctx.hv)?;
        Ok((
            format!(
                "Ablation: open- over closed-page row management (quad-MC, GM H/VH): {v:.3}x\n"
            ),
            scalar_sink("ablation-page-policy", "speedup", v),
        ))
    }),
    ("ablation-smart-refresh", |ctx| {
        let (speedup, plain, smart) = ablation_smart_refresh(
            &ctx.session,
            &ctx.run,
            Mix::by_name("VH1").expect("known mix"),
        )?;
        let mut sink = MetricsSink::new("ablation-smart-refresh");
        sink.gauge("speedup", speedup);
        sink.gauge("refreshes_plain", plain);
        sink.gauge("refreshes_smart", smart);
        Ok((
            format!(
                "Ablation: Smart Refresh on VH1 (quad-MC): {speedup:.3}x speedup, refreshes {plain:.0} -> {smart:.0}\n",
            ),
            sink,
        ))
    }),
    ("ablation-probing", |ctx| {
        let rows = ablation_probing(&ctx.session, &ctx.run, &ctx.hv)?;
        let mut sink = MetricsSink::new("ablation-probing");
        for row in &rows {
            sink.gauge(
                format!("{}.speedup_vs_linear", row.kind),
                row.speedup_vs_linear,
            );
            sink.gauge(
                format!("{}.probes_per_access", row.kind),
                row.probes_per_access,
            );
        }
        Ok((probing_table(&rows).to_string(), sink))
    }),
    ("ablation-energy", |ctx| {
        let rows = ablation_energy(
            &ctx.session,
            &ctx.run,
            Mix::by_name("H2").expect("known mix"),
        )?;
        let mut sink = MetricsSink::new("ablation-energy");
        for row in &rows {
            sink.gauge(
                format!("rb{}.row_hit_rate", row.row_buffers),
                row.row_hit_rate,
            );
            sink.gauge(
                format!("rb{}.nj_per_kilo_instruction", row.row_buffers),
                row.nj_per_kilo_instruction,
            );
        }
        Ok((energy_table(&rows).to_string(), sink))
    }),
];

/// Whether a `--only` selector picks this experiment: either its exact
/// name or a group prefix ("figure7" selects figure7-dual and
/// figure7-quad).
fn selects(only: &str, experiment: &str) -> bool {
    experiment == only
        || experiment
            .strip_prefix(only)
            .is_some_and(|rest| rest.starts_with('-'))
}

/// Wall time and skip accounting for one experiment.
struct Timing {
    name: &'static str,
    wall_seconds: f64,
    skipped_cycles: u64,
    ticked_cycles: u64,
}

/// Renders the `--timings` artifact: a self-describing JSON object with
/// one entry per executed experiment. Simulations shared between
/// experiments are memoized and only charged to the first runner, so an
/// entry with no fresh cycles reports a `null` skip fraction. Wall times
/// carry microsecond resolution so sub-10 ms experiments (e.g. a fully
/// memoized `headline`) stay non-zero in the trajectory.
fn timings_json(timings: &[Timing], total_wall: f64, quick: bool, jobs: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"stacksim-bench-timings/1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"total_wall_seconds\": {total_wall:.6},\n"));
    s.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let cycles = t.skipped_cycles + t.ticked_cycles;
        let fraction = if cycles == 0 {
            "null".to_string()
        } else {
            format!("{:.4}", t.skipped_cycles as f64 / cycles as f64)
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_seconds\": {:.6}, \"skipped_cycles\": {}, \
             \"ticked_cycles\": {}, \"skipped_fraction\": {}}}{}\n",
            t.name,
            t.wall_seconds,
            t.skipped_cycles,
            t.ticked_cycles,
            fraction,
            if i + 1 < timings.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Command-line options.
struct Options {
    only: Vec<String>,
    jobs: Option<usize>,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tol: f64,
    quick: bool,
    timings: Option<PathBuf>,
    check_protocol: bool,
    list: bool,
    machines: Option<PathBuf>,
    scenario: Option<PathBuf>,
    store: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        only: Vec::new(),
        jobs: None,
        out: None,
        baseline: None,
        tol: obs::DEFAULT_TOLERANCE,
        quick: false,
        timings: None,
        check_protocol: false,
        list: false,
        machines: None,
        scenario: None,
        store: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => {
                let name = args.next().ok_or("--only needs an experiment name")?;
                if !EXPERIMENTS.iter().any(|(n, _)| selects(&name, n)) {
                    return Err(format!(
                        "unknown experiment '{name}' (--list prints the names)"
                    ));
                }
                opts.only.push(name);
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs needs a thread count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--jobs: '{n}' is not a number"))?;
                opts.jobs = Some(n);
            }
            "--out" => {
                let dir = args.next().ok_or("--out needs a directory")?;
                opts.out = Some(PathBuf::from(dir));
            }
            "--baseline" => {
                let dir = args.next().ok_or("--baseline needs a directory")?;
                opts.baseline = Some(PathBuf::from(dir));
            }
            "--tol" => {
                let t = args.next().ok_or("--tol needs a relative tolerance")?;
                let t: f64 = t
                    .parse()
                    .map_err(|_| format!("--tol: '{t}' is not a number"))?;
                if !(t.is_finite() && t >= 0.0) {
                    return Err(format!("--tol: '{t}' must be finite and non-negative"));
                }
                opts.tol = t;
            }
            "--quick" => opts.quick = true,
            "--timings" => {
                let file = args.next().ok_or("--timings needs a file path")?;
                opts.timings = Some(PathBuf::from(file));
            }
            "--check-protocol" => opts.check_protocol = true,
            "--machines" => {
                let dir = args.next().ok_or("--machines needs a scenario directory")?;
                opts.machines = Some(PathBuf::from(dir));
            }
            "--scenario" => {
                let file = args.next().ok_or("--scenario needs a scenario file")?;
                opts.scenario = Some(PathBuf::from(file));
            }
            "--store" => {
                let dir = args.next().ok_or("--store needs a directory")?;
                opts.store = Some(PathBuf::from(dir));
            }
            "--list" => opts.list = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("reproduce: {e}");
            eprintln!(
                "usage: reproduce [--only <experiment>]... [--jobs <n>] [--out <dir>] \
                 [--baseline <dir>] [--tol <rel>] [--quick] [--timings <file>] \
                 [--machines <dir>] [--scenario <file>] [--store <dir>] \
                 [--check-protocol] [--list]"
            );
            std::process::exit(2);
        }
    };
    if opts.list {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return Ok(());
    }
    // Durable result store: every simulation point of the session first
    // consults `<dir>` and writes through on a miss. Traced runs
    // (--check-protocol) bypass it — command streams are not persisted.
    let store = match &opts.store {
        Some(dir) => Some(stacksim_store::Store::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };

    // Machine source: an explicit --machines directory must load; the
    // shipped scenarios/ directory is used when present; otherwise the
    // same files as compiled into the binary. Unedited, all three are the
    // same machines, so the choice never changes results.
    let machines = match &opts.machines {
        Some(dir) => Machines::from_dir(dir).map_err(|e| e.to_string())?,
        None => Machines::load(std::path::Path::new("scenarios")).map_err(|e| e.to_string())?,
    };

    // Per-point progress on stderr as each experiment's matrix drains.
    let mut session = Session::new(machines).with_progress(Box::new(|done, total| {
        eprint!("\r  [{done}/{total} points]");
        if done == total {
            eprintln!();
        }
        let _ = std::io::stderr().flush();
    }));
    if let Some(jobs) = opts.jobs.filter(|&n| n > 0) {
        session = session.with_jobs(jobs);
    }
    if let Some(store) = store {
        session = session.with_store(std::sync::Arc::new(store));
    }

    let t0 = Instant::now();
    let ctx = Ctx {
        session,
        run: {
            let mut run = if opts.quick {
                RunConfig::quick()
            } else {
                full_run()
            };
            if opts.check_protocol {
                run = run.with_dram_trace();
            }
            run
        },
        mixes: Mix::all().iter().collect(),
        hv: Mix::memory_intensive().collect(),
    };

    println!(
        "=== stacksim full reproduction (seed {:#x}, {} + {} cycles/run, {} jobs) ===\n",
        ctx.run.seed,
        ctx.run.warmup_cycles,
        ctx.run.measure_cycles,
        ctx.session.jobs()
    );

    let mut results: Vec<(String, MetricsSink)> = Vec::new();
    let mut timings: Vec<Timing> = Vec::new();
    // Experiments that simulated cycles without adding a memo entry: they
    // drive `System` directly, so `--check-protocol` cannot audit them.
    let mut unaudited: Vec<&'static str> = Vec::new();

    // --scenario: one machine, every mix — replaces the experiment registry.
    if let Some(path) = &opts.scenario {
        let scenario = Scenario::from_path(path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let points: Vec<RunPoint> = ctx
            .mixes
            .iter()
            .map(|&mix| (scenario.config.clone(), mix, ctx.run))
            .collect();
        let matrix = ctx.session.run_matrix(&points)?;
        let wall = t.elapsed();
        let mut table = Table::new(vec!["mix".into(), "hmipc".into()]);
        table.title(format!(
            "Scenario {} ({} cores, hash {})",
            scenario.name,
            scenario.config.cores,
            scenario.hash()
        ));
        table.numeric();
        let mut sink = MetricsSink::new("scenario");
        for (mix, r) in ctx.mixes.iter().zip(&matrix) {
            table.row(vec![mix.name.into(), format!("{:.3}", r.hmipc)]);
            sink.gauge(format!("{}.hmipc", mix.name), r.hmipc);
        }
        println!("{table}");
        println!("[scenario {}: {wall:.1?}]\n", scenario.name);
        results.push(("scenario".to_string(), sink));
    }

    for (name, exp) in EXPERIMENTS {
        if opts.scenario.is_some() {
            break;
        }
        if !opts.only.is_empty() && !opts.only.iter().any(|o| selects(o, name)) {
            continue;
        }
        let (skipped_before, ticked_before) = ctx.session.skip_totals();
        let memo_before = ctx.session.memo_len();
        let t = Instant::now();
        let (output, sink) = exp(&ctx)?;
        let wall = t.elapsed();
        println!("{output}");
        println!("[{name}: {wall:.1?}]\n");
        let (skipped_after, ticked_after) = ctx.session.skip_totals();
        if skipped_after + ticked_after > skipped_before + ticked_before
            && ctx.session.memo_len() == memo_before
        {
            unaudited.push(name);
        }
        timings.push(Timing {
            name,
            wall_seconds: wall.as_secs_f64(),
            skipped_cycles: skipped_after - skipped_before,
            ticked_cycles: ticked_after - ticked_before,
        });
        results.push((name.to_string(), sink));
    }

    // Post-hoc audit: replay the DRAM protocol checker over every traced
    // command stream the experiments produced. Purely an inspection of the
    // memoized results — nothing is re-simulated.
    let mut protocol_violations = 0usize;
    if opts.check_protocol {
        let mut runs = 0usize;
        let mut commands = 0usize;
        ctx.session.for_each_cached_run(|cfg, mix, run, result| {
            if !run.dram_trace {
                return;
            }
            let Some(trace) = result.trace.as_ref() else {
                return;
            };
            runs += 1;
            commands += trace.iter().map(Vec::len).sum::<usize>();
            match ProtocolParams::for_config(cfg) {
                Ok(params) => {
                    let found = check_trace(&params, trace);
                    for v in found.iter().take(3) {
                        eprintln!("protocol: {mix}: {v}");
                    }
                    protocol_violations += found.len();
                }
                Err(e) => {
                    eprintln!("protocol: {mix}: cannot derive timing parameters: {e}");
                    protocol_violations += 1;
                }
            }
        });
        println!(
            "protocol check: {runs} traced run(s), {commands} DRAM command(s), \
             {protocol_violations} violation(s)"
        );
        if !unaudited.is_empty() {
            println!(
                "protocol check: not traced (simulated outside the run memo): {}",
                unaudited.join(", ")
            );
        }
    }

    if let Some(dir) = &opts.out {
        let manifest = obs::write_outputs(dir, &ctx.run, &results)?;
        println!(
            "wrote {} experiment file(s) + {}",
            results.len(),
            manifest.display()
        );
    }

    let mut regression = false;
    if let Some(dir) = &opts.baseline {
        let report = obs::diff_against_baseline(dir, &ctx.run, &results, opts.tol)?;
        print!("{report}");
        regression = !report.is_clean();
    }

    if let Some(file) = &opts.timings {
        let json = timings_json(
            &timings,
            t0.elapsed().as_secs_f64(),
            opts.quick,
            ctx.session.jobs(),
        );
        std::fs::write(file, json)?;
        println!("wrote timing artifact {}", file.display());
    }

    println!(
        "total wall time: {:.1?} ({} distinct simulations)",
        t0.elapsed(),
        ctx.session.memo_len()
    );
    if opts.store.is_some() {
        let (hits, misses, simulated) = ctx.session.tier_stats();
        println!("store: {hits} hit(s), {misses} miss(es), {simulated} simulated");
    }
    if regression || protocol_violations > 0 {
        std::process::exit(1);
    }
    Ok(())
}
