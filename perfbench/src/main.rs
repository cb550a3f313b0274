//! `perfbench` — the in-process half of the benchmark. `run.py` builds it
//! and drives it; every line it prints to stdout is one JSON record.
//!
//! ```text
//! perfbench train     --workload W --seed N --job reference|setup|job
//! perfbench churn     --repro PATH --outdir DIR --setups K --seconds S  < jobs
//! perfbench reference  < jobs
//! perfbench layers    --workload W --seed N --spans PATH
//! ```
//!
//! `churn` and `reference` read their jobs from stdin, one
//! `STEPS/VICTIM@POINT:AT` a line (see `workload::ChurnJob`).

mod churn;
mod layers;
mod replay;
mod trace;
mod train;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use workload::Workload;

/// `--name value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    let v = flags
        .get(name)
        .ok_or_else(|| format!("--{name} is required"))?;
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse `{v}`"))
}

/// One output record: a flat JSON object built field by field.
pub struct Record(String);

impl Record {
    pub fn new(kind: &str) -> Self {
        Record(format!("{{\"kind\":\"{kind}\""))
    }

    pub fn num(mut self, key: &str, v: f64) -> Self {
        assert!(v.is_finite(), "{key} is not finite");
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Self {
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }

    pub fn text(mut self, key: &str, v: &str) -> Self {
        let _ = write!(self.0, ",\"{key}\":\"{v}\"");
        self
    }

    /// Fingerprints travel as hex strings: JSON numbers lose u64 precision.
    pub fn fps(mut self, key: &str, fps: &[Option<u64>]) -> Self {
        let items: Vec<String> = fps
            .iter()
            .map(|f| match f {
                Some(f) => format!("\"{f:016x}\""),
                None => "null".to_string(),
            })
            .collect();
        let _ = write!(self.0, ",\"{key}\":[{}]", items.join(","));
        self
    }

    pub fn emit(mut self) {
        self.0.push('}');
        println!("{}", self.0);
    }
}

/// Median of `v` (the mean of the middle pair for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

/// Peak resident set of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    proc_status_kib("VmHWM:")
}

/// Current resident set of this process, in KiB (`VmRSS`).
pub fn rss_kib() -> u64 {
    proc_status_kib("VmRSS:")
}

fn proc_status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("field in /proc/self/status")
}

fn jobs_from_stdin() -> Result<Vec<workload::ChurnJob>, String> {
    let text = std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?;
    text.lines().map(workload::ChurnJob::parse).collect()
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "train" => train::run(
            Workload::parse(&flag::<String>(&flags, "workload")?)?,
            flag(&flags, "seed")?,
            &flag::<String>(&flags, "job")?,
        ),
        "churn" => churn::run(
            &flag::<String>(&flags, "repro")?,
            &flag::<String>(&flags, "outdir")?,
            &jobs_from_stdin()?,
            flag(&flags, "setups")?,
            flag(&flags, "seconds")?,
        ),
        "reference" => {
            for job in jobs_from_stdin()? {
                let cfg = job.reference();
                let res = elastic::run_scenario(&cfg);
                let fps: Vec<Option<u64>> = res
                    .exits
                    .iter()
                    .map(|e| e.stats().map(|s| s.state_fingerprint))
                    .collect();
                Record::new("reference")
                    .text("job", &job.to_string())
                    .int(
                        "samples",
                        (cfg.spec.total_steps * cfg.spec.global_batch) as u64,
                    )
                    .int("completed", res.completed() as u64)
                    .fps("fps", &fps)
                    .emit();
            }
            Ok(())
        }
        "layers" => layers::run(
            Workload::parse(&flag::<String>(&flags, "workload")?)?,
            flag(&flags, "seed")?,
            &flag::<String>(&flags, "spans")?,
        ),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
