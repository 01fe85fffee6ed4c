//! The repository benchmark: drives `actcomp` from outside through its
//! public APIs and prints end-to-end metrics (untraced run) or per-layer
//! metrics (traced run) for one workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every line before it
//! is human-readable: host facts, output checks, and every metric with
//! its unit and sample count. Any failed output check makes the run exit
//! with code 1. See `perfbench/README.md` for the workloads and the
//! layer → metric predictions.
//!
//! `perfbench worker ...` is the process-per-rank entry point the procs
//! launcher re-executes; it is not meant to be run by hand.

mod engine;
mod host;
mod layers;
mod report;
mod serve;
mod spans;
mod train;
mod worker;
mod workload;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::Workload;

/// Scratch directory (relative to the checkout root) for traces and
/// socket files; the benchmark writes nothing outside it.
const OUT_DIR: &str = "perfbench/out";

/// Parsed command line of a benchmark run.
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let value = it.next().ok_or_else(|| format!("{key} expects a value"))?;
            match key.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    )
                }
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed expects an unsigned integer, got '{value}'")
                    })?)
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| format!("--seconds expects a number, got '{value}'"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        worker::run(&args[1..]);
        return;
    }
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let tmp = match prepare_out_dir() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    watchdog(tmp.clone());
    let code = run(&opts);
    // Rank processes that were killed rather than shut down leave their
    // socket files behind.
    let _ = std::fs::remove_dir_all(&tmp);
    std::process::exit(code);
}

/// A run that has not finished by then is hung (a lost reply, a rank
/// that never answers): fail it rather than run forever.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Fails the run after `WATCHDOG`: kills the rank processes, removes the
/// run's temp directory, prints a failed result and exits with code 1.
fn watchdog(tmp: PathBuf) {
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run still going after {WATCHDOG:?}; giving up");
        for pid in host::child_pids() {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status();
        }
        let _ = std::fs::remove_dir_all(&tmp);
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    });
}

/// Runs the benchmark; returns the exit code.
fn run(opts: &Opts) -> i32 {
    // One kernel thread per rank; procs workers set the same in
    // `worker::run`, so every rank computes on exactly one core.
    actcomp_tensor::pool::set_threads(1);
    let host = host::Host::probe();
    println!("host {}", host.describe());
    let ranks = opts.workload.ranks();
    if ranks * host.kernel_threads > host.nproc {
        eprintln!(
            "error: {ranks} ranks x {} kernel threads exceed nproc = {}",
            host.kernel_threads, host.nproc
        );
        return 2;
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    let ticks = host::cpu_ticks();
    let mut spans = spans::Spans::new(opts.trace);
    let budget = Duration::from_secs_f64(opts.seconds);
    let outcome: Result<Outcome, String> = if opts.workload.is_serve() {
        serve::run(&opts.workload, opts.seed, budget, &mut spans)
    } else {
        train::run(&opts.workload, opts.seed, budget, &mut spans)
    };
    if let Some(f) = host::steal_frac(ticks, host::cpu_ticks()) {
        println!("host steal during run {:.2}%", f * 100.0);
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return 1;
        }
    };
    if opts.trace {
        let path = trace_path(opts);
        match spans.write_chrome(&path) {
            Ok(n) => println!("trace {} ({n} spans)", path.display()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return 1;
            }
        }
    }
    if outcome.print(opts.trace) {
        0
    } else {
        1
    }
}

/// Creates this run's temp directory under the output directory and
/// points the process temp dir (and so every Unix socket the transports
/// bind, in this process and in the workers it spawns) into it. The path
/// stays relative so socket paths stay far below the `sun_path` limit
/// wherever the checkout lives.
fn prepare_out_dir() -> Result<PathBuf, String> {
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(tmp)
}

fn trace_path(opts: &Opts) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name, opts.seed
    ))
}
