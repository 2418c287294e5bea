//! `perfbench`: the benchmark of the `absolver` CLI and the `absolverd`
//! service.
//!
//! ```text
//! perfbench --workload steering|threshold|service --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --work-dir DIR
//! ```
//!
//! `perfbench/run.py` builds the program and this benchmark, then runs it
//! with `--bin-dir` naming the directory that holds `absolver` and
//! `absolverd`. The last line of stdout is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `BENCHMARK.json` at the repository root says why each workload and
//! metric was chosen.

mod check;
mod cli;
mod host;
mod inputs;
mod proc;
mod service;
mod stats;

use absolver::trace::JsonObject;
use std::path::PathBuf;
use std::process::ExitCode;

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends metric `name` with `value` in `unit`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Appends each `(name, unit)` of `layers` with value 0: the layers a
    /// workload does not reach.
    pub fn zeros(&mut self, layers: &[(&'static str, &'static str)]) {
        for &(name, unit) in layers {
            self.push(name, 0.0, unit);
        }
    }

    /// The value of metric `name`, if present.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, value, unit) in &self.0 {
            let mut metric = JsonObject::new();
            metric.field_f64("value", *value).field_str("unit", unit);
            obj.field_raw(name, &metric.finish());
        }
        obj.finish()
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Whether every answer matched the instance's known answer.
    pub correct: bool,
    /// Requests sent in the measured phase.
    pub attempted: u64,
    /// Requests whose answer was missing or wrong.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl Default for RunResult {
    fn default() -> RunResult {
        RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
        }
    }
}

/// Appends the end-to-end metrics of a measured run: `setups_s` are its
/// set-up times, `latencies_ms` the latencies of its correct answers,
/// `elapsed_s` the timed phase and `peak_rss_kb` the peak resident memory
/// of the process under test.
pub fn end_to_end(
    result: &mut RunResult,
    setups_s: &[f64],
    latencies_ms: &[f64],
    tail_q: f64,
    elapsed_s: f64,
    peak_rss_kb: Option<u64>,
) {
    let completed = latencies_ms.len() as f64;
    let m = &mut result.metrics;
    m.push("setup_s", stats::median(setups_s).unwrap_or(0.0), "s");
    m.push(
        "latency_p50_ms",
        stats::median(latencies_ms).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "latency_tail_ms",
        stats::tail(latencies_ms, tail_q).unwrap_or(0.0),
        "ms",
    );
    m.push("throughput_rps", completed / elapsed_s, "1/s");
    m.push(
        "peak_rss_mb",
        peak_rss_kb.unwrap_or(0) as f64 / 1024.0,
        "MB",
    );
    m.push(
        "success_rate",
        completed / result.attempted.max(1) as f64,
        "ratio",
    );
}

const STEERING: cli::CliWorkload = cli::CliWorkload {
    text: inputs::steering_text,
    requests_per_second: 1.5,
    tail_q: 0.75,
    setups: 15,
};

const THRESHOLD: cli::CliWorkload = cli::CliWorkload {
    text: inputs::threshold_text,
    requests_per_second: 2.0,
    tail_q: 0.8,
    setups: 15,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, text: String| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag} takes a whole number, not `{text}`"))
    };
    let args = Args {
        workload: get("--workload")?,
        seed: number("--seed", get("--seed")?)?,
        seconds: number("--seconds", get("--seconds")?)?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        bin_dir: get("--bin-dir")?.into(),
        work_dir: get("--work-dir")?.into(),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [mode, file] = argv.as_slice() {
        if mode == "trace-child" {
            return cli::trace_child(file.as_ref());
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let absolver = args.bin_dir.join("absolver");
    let absolverd = args.bin_dir.join("absolverd");
    let cli_workload = match args.workload.as_str() {
        "steering" => Some(&STEERING),
        "threshold" => Some(&THRESHOLD),
        "service" => None,
        other => {
            eprintln!("perfbench: unknown workload `{other}` (steering|threshold|service)");
            return ExitCode::from(2);
        }
    };
    let before = host::cpu_ticks();
    let run = match cli_workload {
        Some(workload) => {
            let input = args.work_dir.join(format!("{}.dimacs", args.workload));
            cli::run(workload, &absolver, &input, args.seconds, args.trace)
        }
        None => service::run(&absolverd, args.seed, args.seconds, args.trace),
    };
    let steal = host::steal_share(before, host::cpu_ticks());
    eprintln!("perfbench: host steal {:.2}% of CPU time", steal * 100.0);
    let result = match run {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let mut obj = JsonObject::new();
    obj.field_bool("correct", result.correct)
        .field_u64("attempted", result.attempted)
        .field_u64("failed", result.failed)
        .field_raw("metrics", &result.metrics.to_json());
    println!("{}", obj.finish());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
    pub(crate) fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let body = &json[json.find(&format!("\"{section}\"")).expect(section)..];
        let body = &body[..body.find(']').expect("section ends")];
        let quoted = |entry: &str, key: &str| {
            let at = entry.find(key).expect(key) + key.len();
            entry[at..][..entry[at..].find('"').expect("closing quote")].to_string()
        };
        body.split("{\"name\": ")
            .skip(1)
            .map(|entry| (quoted(entry, "\""), quoted(entry, "\"unit\": \"")))
            .collect()
    }

    /// `(name, unit)` of each metric in `m`, in report order.
    pub(crate) fn printed(m: &Metrics) -> Vec<(String, String)> {
        m.0.iter()
            .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_are_the_declared_ones() {
        let mut run = RunResult {
            attempted: 21,
            ..RunResult::default()
        };
        end_to_end(
            &mut run,
            &[0.5, 0.7, 0.6],
            &[10.0; 20],
            0.5,
            4.0,
            Some(2048),
        );
        assert_eq!(printed(&run.metrics), declared("end_to_end"));
        assert_eq!(run.metrics.get("setup_s"), Some(0.6));
        assert_eq!(run.metrics.get("throughput_rps"), Some(5.0));
        assert_eq!(run.metrics.get("peak_rss_mb"), Some(2.0));
        assert_eq!(run.metrics.get("success_rate"), Some(20.0 / 21.0));
    }

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_seed_is_an_argument() {
        let args = parse_args(&argv(
            "--workload service --seed 42 --seconds 20 --trace 1 --bin-dir b --work-dir w",
        ))
        .expect("parses");
        assert_eq!((args.seed, args.seconds, args.trace), (42, 20, true));
        assert!(parse_args(&argv(
            "--workload service --seconds 20 --trace 0 --bin-dir b --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload service --seed x --seconds 20 --trace 0 --bin-dir b --work-dir w"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload service --seed 1 --seconds 20 --trace 2 --bin-dir b --work-dir w"
        ))
        .is_err());
    }

    #[test]
    fn metrics_render_as_named_values_with_units() {
        let mut m = Metrics::default();
        m.push("latency_p50_ms", 1.25, "ms");
        m.push("success_rate", 1.0, "ratio");
        assert_eq!(
            m.to_json(),
            r#"{"latency_p50_ms":{"value":1.25,"unit":"ms"},"success_rate":{"value":1,"unit":"ratio"}}"#
        );
    }
}
