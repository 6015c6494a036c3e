//! The FRAP benchmark: one command runs five workloads — each in its own
//! child process — prints every metric by name with its unit, checks the
//! outputs, and writes one result file under `benchmark/out/`.
//!
//! ```text
//! frap-benchmark all [--seed N] [--seconds S] [--runs N] [--trace] [--smoke]
//! frap-benchmark run <workload> [--seed N] [--seconds S] [--trace] [--smoke] [--bless]
//! frap-benchmark compare <a.json> <b.json>
//! frap-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last form is the contract `BENCHMARK.json` names: it runs one
//! workload and ends its standard output with one JSON line.
//! See `benchmark/README.md`.

mod cluster;
mod compare;
mod env;
mod gw;
mod hostref;
mod json;
mod layers;
mod metrics;
mod openloop;
mod report;
mod simw;
mod stats;
mod svc;
mod trace;
mod wire;

use json::Json;
use report::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// `run_seconds` in `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 16.0;
/// `--smoke`: the whole suite in under 20 s, results not comparable.
const SMOKE_SECONDS: f64 = 2.5;
/// The seed the committed goldens were blessed with.
pub const DEFAULT_SEED: u64 = 1;

/// What a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// How long to measure, set-up and drain excluded.
    pub seconds: f64,
    /// Traced run: shortened phases, spans, and the layer replay; reports
    /// per-layer metrics. End-to-end metrics always come from untraced
    /// runs.
    pub traced: bool,
    /// False under `--smoke`.
    pub comparable: bool,
    /// Rewrite the goldens instead of checking them.
    pub bless: bool,
}

impl Ctx {
    /// Time budget of one layer-replay row.
    pub fn replay_budget(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.012).clamp(0.02, 0.25))
    }
}

/// Writes the traced run's spans to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, tracer: &trace::Tracer) {
    let path = env::out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, tracer.to_json(workload).render()) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn run_in_process(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    match workload {
        "gw_reject" => gw::run(&gw::REJECT, ctx),
        "gw_admit_release" => gw::run(&gw::ADMIT_RELEASE, ctx),
        "svc_boundary" => svc::run(ctx),
        "sim_paper" => simw::run(ctx),
        "cluster_shift" => cluster::run(ctx),
        other => Err(unknown_workload(other)),
    }
}

fn unknown_workload(name: &str) -> String {
    format!(
        "unknown workload {name:?}; the workloads are {}",
        metrics::WORKLOADS.join(", ")
    )
}

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    bless: bool,
    runs: usize,
    workload: Option<String>,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        runs: 1,
        ..Args::default()
    };
    let mut it = raw.iter().peekable();
    let flag_value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| -> Option<bool> {
        // `--trace` alone, or `--trace 0|1` as the driver passes it.
        match it.peek().map(|s| s.as_str()) {
            Some("0") => {
                it.next();
                Some(false)
            }
            Some("1") => {
                it.next();
                Some(true)
            }
            _ => None,
        }
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                args.seed = Some(value("--seed")?.parse().map_err(|_| "--seed takes a u64")?)
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs takes a count")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--workload" => args.workload = Some(value("--workload")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => args.trace = flag_value(&mut it).unwrap_or(true),
            "--smoke" => args.smoke = flag_value(&mut it).unwrap_or(true),
            "--bless" => args.bless = flag_value(&mut it).unwrap_or(true),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

impl Args {
    fn ctx(&self, traced: bool) -> Ctx {
        Ctx {
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            seconds: self.seconds.unwrap_or(if self.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            }),
            traced,
            comparable: !self.smoke,
            bless: self.bless,
        }
    }
}

/// Runs one workload in a child process (its own address space, so peak
/// RSS is the workload's; its own working directory and a captured
/// standard output, so the experiment modules' tables and CSV files land
/// under `benchmark/out/`) and loads its result.
fn run_child(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    let out = env::out_dir();
    let tag = if ctx.traced { "-trace" } else { "" };
    let result_path = out.join(format!("{workload}{tag}.json"));
    let log_path = out.join(format!("{workload}{tag}.log"));
    let _ = std::fs::remove_file(&result_path);
    // `Table::write_csv` writes to the nearest ancestor holding a
    // `results/` directory; give the child one of its own so the repo's
    // committed `results/*.csv` are never touched.
    let cwd = out.join("cwd");
    std::fs::create_dir_all(cwd.join("results")).map_err(|e| format!("{}: {e}", cwd.display()))?;
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let status = Command::new(exe)
        .arg("child")
        .args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", flag(ctx.traced)])
        .args(["--smoke", flag(!ctx.comparable)])
        .args(["--bless", flag(ctx.bless)])
        .arg("--out")
        .arg(&result_path)
        .current_dir(&cwd)
        .stdin(Stdio::null())
        .stdout(log)
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("could not start the {workload} child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload}: child exited with {status}; its output is in {}",
            log_path.display()
        ));
    }
    Report::load(&result_path)
}

fn child_main(args: &Args) -> Result<(), String> {
    let workload = args.workload.as_deref().ok_or("child needs --workload")?;
    let out = args.out.as_ref().ok_or("child needs --out")?;
    let report = run_in_process(workload, &args.ctx(args.trace))?;
    std::fs::write(out, report.to_json().pretty()).map_err(|e| format!("{}: {e}", out.display()))
}

/// `run <workload>` and the driver form: one workload, its block of
/// metrics and checks, then the contract line last.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    if !metrics::WORKLOADS.contains(&workload) {
        return Err(unknown_workload(workload));
    }
    let ctx = args.ctx(args.trace);
    if ctx.bless {
        refuse_bless_on_dirty_tree()?;
    }
    let report = run_child(workload, &ctx)?;
    print!("{}", report.render());
    println!("{}", report.contract_line());
    Ok(report.correct())
}

fn refuse_bless_on_dirty_tree() -> Result<(), String> {
    match env::product_tree_dirty() {
        Some(false) => Ok(()),
        Some(true) => Err(
            "--bless refuses to run: files outside benchmark/ differ from HEAD, \
                           so the goldens would record an uncommitted product tree"
                .into(),
        ),
        None => Err("--bless refuses to run outside a git checkout".into()),
    }
}

/// `all`: every workload `--runs` times (seed, seed+1, …), optionally
/// each once more traced, one result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let base = args.ctx(false);
    if base.bless {
        refuse_bless_on_dirty_tree()?;
    }
    let env_record = env::record();
    println!("environment: {}", env_record.render());
    let mut all_correct = true;
    let mut runs = Vec::new();
    for run in 0..args.runs {
        let ctx = Ctx {
            seed: base.seed.wrapping_add(run as u64),
            ..base
        };
        let mut workloads = Json::obj();
        for workload in metrics::WORKLOADS {
            let report = run_child(workload, &ctx)?;
            print!("{}", report.render());
            all_correct &= report.correct();
            workloads.set(workload, report.to_json());
        }
        runs.push(
            Json::obj()
                .with("seed", Json::Str(ctx.seed.to_string()))
                .with("workloads", workloads),
        );
    }
    let mut traced = Json::obj();
    if args.trace {
        let ctx = Ctx {
            traced: true,
            bless: false,
            ..base
        };
        for workload in metrics::WORKLOADS {
            let report = run_child(workload, &ctx)?;
            print!("{}", report.render());
            all_correct &= report.correct();
            traced.set(workload, report.to_json());
        }
    }
    let doc = Json::obj()
        .with("schema", Json::Num(1.0))
        .with("env", env_record)
        .with("seed", Json::Str(base.seed.to_string()))
        .with("seconds", Json::Num(base.seconds))
        .with("comparable", Json::Bool(base.comparable))
        .with("runs", Json::Arr(runs))
        .with("traced", traced);
    let name = format!(
        "result-seed{}{}.json",
        base.seed,
        if base.comparable { "" } else { "-smoke" }
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| env::out_dir().join(name));
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!(
        "{}",
        if all_correct {
            "all correctness checks passed"
        } else {
            "CORRECTNESS CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    match args.positional.first().map(String::as_str) {
        Some("child") => child_main(&args).map(|()| true),
        Some("all") => run_all(&args),
        Some("run") => {
            let workload = args
                .positional
                .get(1)
                .cloned()
                .or_else(|| args.workload.clone())
                .ok_or("run needs a workload name")?;
            run_one(&workload, &args)
        }
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some(other) => Err(format!(
            "unknown command {other:?}; try all, run <workload>, or compare <a.json> <b.json>"
        )),
        None => match &args.workload {
            Some(workload) => run_one(workload, &args),
            None => Err("usage: all | run <workload> | compare <a.json> <b.json> | \
                         --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                .into()),
        },
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("frap-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
