//! The repository benchmark: one command, four workloads, end-to-end and
//! per-layer metrics (see `README.md` beside this package and the
//! repository's `BENCHMARK.json`).
//!
//! ```text
//! perfbench --workload <sim_paper|sweep_paper|serve_light|serve_saturated>
//!           --seed <n> --seconds <n> --trace <0|1> [--small] [--flip-reference]
//! ```
//!
//! Every layer is timed from outside, around the calls this program makes
//! into the crates' public functions. The last line of standard output is
//! the JSON result; the lines above it are the same figures for people.

mod report;
mod serve;
mod setup;
mod sim;
mod sweep;
mod trace;

use report::{Checks, EndToEnd, Layers};
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <sim_paper|sweep_paper|serve_light|serve_saturated> \
--seed <n> --seconds <n> --trace <0|1> [--small] [--flip-reference]";

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimPaper,
    SweepPaper,
    ServeLight,
    ServeSaturated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimPaper,
        Workload::SweepPaper,
        Workload::ServeLight,
        Workload::ServeSaturated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim_paper",
            Workload::SweepPaper => "sweep_paper",
            Workload::ServeLight => "serve_light",
            Workload::ServeSaturated => "serve_saturated",
        }
    }

    /// Whether `BENCHMARK.json` lists the workload (the others are
    /// runnable by name but too unsteady on a shared host to gate on).
    pub fn gated(self) -> bool {
        matches!(self, Workload::SimPaper | Workload::ServeSaturated)
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny scenes and short windows: the self-test's quick pass.
    pub small: bool,
    /// Perturbs one expected hit count, to show that the output checks
    /// count a wrong result as a failure.
    pub flip_reference: bool,
    /// Times one set-up, prints it and exits: how [`Run::set_up`] times
    /// set-ups in fresh processes.
    pub setup_only: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut small = false;
    let mut flip_reference = false;
    let mut setup_only = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--small" => small = true,
            "--flip-reference" => flip_reference = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        small,
        flip_reference,
        setup_only,
    })
}

/// State shared by the phases of one run.
pub struct Run {
    pub args: Args,
    /// Worker threads for simulators, pools and captures: at most two,
    /// and never more than the machine has.
    pub jobs: usize,
    pub tracer: Tracer,
    pub checks: Checks,
    /// Checks made inside set-up, which sees the run only by shared
    /// reference; [`Run::set_up`] folds them into `checks`.
    pub setup_checks: RefCell<Checks>,
    pub layers: Layers,
    /// Scratch directory for artifacts, traces and determinism records.
    pub out_dir: PathBuf,
}

impl Run {
    /// The timed phases: one untraced window, or, in a traced run, an
    /// untraced half followed by a traced half (their ratio is the
    /// tracing overhead).
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        let seconds = Duration::from_secs_f64(self.args.seconds);
        if self.args.trace {
            vec![(false, seconds / 2), (true, seconds / 2)]
        } else {
            vec![(false, seconds)]
        }
    }

    /// Derives a per-purpose seed from the workload seed (SplitMix64).
    pub fn seed_for(&self, purpose: u64) -> u64 {
        let mut z = self
            .args
            .seed
            .wrapping_add(purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Times `reps` set-ups, each the first in a fresh process and from a
    /// fresh artifact directory: `reps - 1` in child processes of this
    /// program (`--setup-only`), then this process's own, whose inputs it
    /// returns with the median set-up time. How long a set-up takes varies
    /// far more from process to process than within one.
    pub fn set_up<T>(
        &mut self,
        reps: usize,
        setup: impl FnOnce(&Run, &std::path::Path) -> T,
    ) -> (T, f64) {
        let mut times = Vec::with_capacity(reps);
        if !self.args.setup_only {
            for _ in 1..reps {
                match self.child_set_up() {
                    Ok(seconds) => times.push(seconds),
                    Err(why) => {
                        self.checks.attempt(1);
                        self.checks
                            .fail(1, format!("set-up in a child process: {why}"));
                    }
                }
            }
        }
        let dir = self
            .out_dir
            .join(format!("artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let inputs = self.tracer.span("bench.setup", || setup(self, &dir));
        times.push(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        self.checks.absorb(self.setup_checks.take());
        if self.args.setup_only {
            let checks = &self.checks;
            println!(
                "setup {:?} {} {}",
                times[0], checks.attempted, checks.failed
            );
            std::process::exit(0);
        }
        (inputs, report::median(&times))
    }

    /// Runs this program with `--setup-only` and returns the set-up time
    /// it reports; a failed check in the child is an error.
    fn child_set_up(&self) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut command = std::process::Command::new(exe);
        command.args([
            "--workload",
            self.args.workload.name(),
            "--seed",
            &self.args.seed.to_string(),
            "--setup-only",
        ]);
        if self.args.small {
            command.arg("--small");
        }
        let output = command.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let fields: Vec<&str> = stdout
            .lines()
            .last()
            .and_then(|line| line.strip_prefix("setup "))
            .map(|rest| rest.split(' ').collect())
            .unwrap_or_default();
        match (output.status.success(), &fields[..]) {
            (true, [seconds, _, "0"]) => seconds.parse().map_err(|_| stdout.to_string()),
            _ => Err(format!("{}: {stdout}", output.status)),
        }
    }

    /// Compares exactly reproducible values with the record an earlier
    /// run of the same build with the same workload, scale and seed left,
    /// and leaves one when there is none. Every differing value is a
    /// failed operation. Keying by build keeps a changed simulator or
    /// predictor from being compared with its parent's figures.
    pub fn check_record(&mut self, values: &[(String, String)]) {
        let scale = if self.args.small { "small" } else { "full" };
        let path = self.out_dir.join(format!(
            "record-{}-{scale}-{}-{:016x}.txt",
            self.args.workload.name(),
            self.args.seed,
            build_id()
        ));
        let text: String = values.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        match std::fs::read_to_string(&path) {
            Ok(previous) => {
                let mismatched = previous
                    .lines()
                    .zip(text.lines())
                    .filter(|(a, b)| a != b)
                    .count()
                    + previous.lines().count().abs_diff(text.lines().count());
                self.checks.fail(
                    mismatched as u64,
                    format!(
                        "{mismatched} simulated values differ from an earlier run ({})",
                        path.display()
                    ),
                );
            }
            Err(_) => {
                // Write then rename, so a concurrent run never reads half.
                let partial = path.with_extension(format!("{}.partial", std::process::id()));
                if std::fs::write(&partial, text).is_ok() {
                    let _ = std::fs::rename(&partial, &path);
                }
            }
        }
    }
}

/// FNV-1a of this program's executable, so records of different builds
/// never meet (0 when the executable cannot be read).
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut run = Run {
        jobs: nproc.min(2),
        tracer: Tracer::new(args.trace),
        checks: Checks::default(),
        setup_checks: RefCell::default(),
        layers: Layers::default(),
        out_dir,
        args,
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} worker thread(s) of {nproc}",
        run.args.workload.name(),
        run.args.seed,
        run.args.seconds,
        u8::from(run.args.trace),
        run.jobs
    );
    let e2e: EndToEnd = match run.args.workload {
        Workload::SimPaper => sim::run(&mut run),
        Workload::SweepPaper => sweep::run(&mut run),
        Workload::ServeLight => serve::run_light(&mut run),
        Workload::ServeSaturated => serve::run_saturated(&mut run),
    };
    if run.args.trace {
        run.layers.set_span_times(&run.tracer);
        let path = run.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            run.args.workload.name(),
            run.args.seed
        ));
        match std::fs::write(&path, run.tracer.export_jsonl()) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    print!(
        "{}",
        report::render(
            run.args.workload.name(),
            run.args.workload.gated(),
            run.args.trace,
            &e2e,
            &run.layers,
            &run.checks
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse(&[
            "--workload",
            "serve_light",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workload, Workload::ServeLight);
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 3.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "sim_paper", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "sim_paper", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "sim_paper", "--bogus"]).is_err());
    }
}
