//! The repository benchmark: five seeded workloads, timed end to end and
//! layer by layer.
//!
//! ```text
//! perfbench --workload <scale|hot|readers|dist|live> --seed <n>
//!           --seconds <s> --trace <0|1> [--toy] [--corrupt-digest]
//! ```
//!
//! With `--trace 0` the benchmark measures the end-to-end metrics with
//! tracing off; with `--trace 1` it records the event stream in a
//! separate traced measurement and prints the per-layer metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records provenance. A failed check prints its reason to standard
//! error, counts the transactions it covers as failed and makes the exit
//! status non-zero.
//!
//! `--toy` shrinks every workload for the benchmark's own tests.
//! `--corrupt-digest` flips one bit of a repetition's outcome digest, to
//! test that the digest check reports it.
//!
//! See `perfbench/README.md` for the workloads and the metric table.

mod layers;
mod live;
mod replay;
mod sim;
mod util;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub corrupt_digest: bool,
}

const USAGE: &str = "usage: perfbench --workload <scale|hot|readers|dist|live> --seed <n> \
                     --seconds <s> --trace <0|1> [--toy] [--corrupt-digest]";

const WORKLOADS: [&str; 5] = ["scale", "hot", "readers", "dist", "live"];

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut toy = false;
        let mut corrupt_digest = false;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                    })
                }
                "--toy" => toy = true,
                "--corrupt-digest" => corrupt_digest = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Options {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            toy,
            corrupt_digest,
        })
    }
}

/// Transactions attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failed check covering `txns` transactions.
    pub fn fail(&mut self, txns: u64, why: String) {
        self.failed += txns;
        self.failures.push(why);
    }
}

/// Metrics in print order, plus provenance notes (sample counts and
/// repetitions) that go on the provenance line.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance line: the run's arguments, the host's core count, the
/// rustc that built the benchmark, the commit of the working directory
/// (`unknown` outside a git checkout; git does not look above it) and
/// the repetition and sample counts behind the metrics.
fn provenance(opts: &Options, notes: &[(&'static str, f64)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cwd = std::env::current_dir().unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut fields = vec![
        format!("\"workload\": {}", json_str(&opts.workload)),
        format!("\"seed\": {}", opts.seed),
        format!("\"seconds\": {}", opts.seconds),
        format!("\"trace\": {}", u8::from(opts.trace)),
        format!("\"toy\": {}", opts.toy),
        format!("\"nproc\": {nproc}"),
        format!("\"rustc\": {}", json_str(env!("PERFBENCH_RUSTC"))),
        format!("\"commit\": {}", json_str(&commit)),
    ];
    fields.extend(notes.iter().map(|(k, v)| format!("{}: {v}", json_str(k))));
    format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if opts.workload == "live" {
        if opts.trace {
            live::measure_traced(&opts, &mut checks, &mut metrics);
        } else {
            live::measure(&opts, &mut checks, &mut metrics);
        }
    } else {
        let arms = sim::arms(&opts.workload, opts.toy).expect("workload name checked at parse");
        if opts.trace {
            sim::measure_traced(&arms, &opts, &mut checks, &mut metrics);
        } else {
            sim::measure(&arms, &opts, &mut checks, &mut metrics);
        }
    }

    for (name, value, _) in &metrics.values {
        if !value.is_finite() {
            checks.fail(0, format!("metric {name} is not a finite number: {value}"));
        }
    }
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = checks.failures.is_empty();
    println!("{}", provenance(&opts, &metrics.notes));
    let body: Vec<String> = metrics
        .values
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
