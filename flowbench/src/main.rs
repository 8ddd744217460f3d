//! `cata-flowbench` — run one workload of the flow-level benchmark, or
//! compare saved results.
//!
//! ```text
//! cata-flowbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--out FILE]
//! cata-flowbench compare BASE.jsonl NEW.jsonl
//! cata-flowbench digests --workload paper-grid [--seed N]
//! ```
//!
//! A run prints its provenance and every metric with its unit and sample
//! count as `#` lines, then one JSON result line. `--out` appends a
//! provenance-stamped record that `compare` reads.

use cata_flowbench::stats::{median, quantile};
use cata_flowbench::{Config, Size, Workload, DEFAULT_SEED};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: cata-flowbench --workload paper-grid|contended-faults|serve-replay|store-readback \
     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
     \x20      cata-flowbench compare BASE.jsonl NEW.jsonl\n\
     \x20      cata-flowbench digests --workload paper-grid [--seed N]"
        .to_string()
}

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value("--workload")?)?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "-h" | "--help" => return Err(usage()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string())
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_deref() {
        None => run(&args),
        Some("compare") => compare(&args.positional),
        Some("digests") => digests(&args),
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload.ok_or_else(usage)?;
    let cfg = Config::new(workload, args.seed, args.seconds, args.trace);
    let outcome = cata_flowbench::run(&cfg)?;
    if let Some(path) = &args.out {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", outcome.record()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", outcome.text());
    println!("{}", outcome.json());
    Ok(())
}

fn digests(args: &Args) -> Result<(), String> {
    if args.workload != Some(Workload::PaperGrid) {
        return Err("digests: only --workload paper-grid has pinned digests".to_string());
    }
    let specs = cata_flowbench::paper_grid_specs(Size::Full, args.seed)?;
    print!("{}", cata_flowbench::digest_lines(&specs)?);
    Ok(())
}

/// One saved result: `(workload, trace)` key, host, metric values.
struct Saved {
    key: String,
    host: String,
    metrics: BTreeMap<String, f64>,
}

fn load_saved(path: &str) -> Result<Vec<Saved>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let str_of = |v: &Value, k: &str| match v.get(k) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(Value::Bool(b)) => Ok(b.to_string()),
        _ => Err(format!("{path}: record without `{k}`")),
    };
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = serde_json::parse_value(line).map_err(|e| format!("{path}: {e}"))?;
        let Some(Value::Map(metrics)) = v.get("metrics") else {
            return Err(format!("{path}: record without metrics"));
        };
        let metrics = metrics
            .iter()
            .filter_map(|(k, v)| match v {
                Value::F64(x) => Some((k.clone(), *x)),
                Value::U64(x) => Some((k.clone(), *x as f64)),
                Value::I64(x) => Some((k.clone(), *x as f64)),
                _ => None,
            })
            .collect();
        out.push(Saved {
            key: format!("{} trace={}", str_of(&v, "workload")?, str_of(&v, "trace")?),
            host: str_of(&v, "host")?,
            metrics,
        });
    }
    Ok(out)
}

/// Medians and quartiles of each metric in two result files. Results
/// from different hosts are refused: host time on one machine says
/// nothing about another.
fn compare(files: &[String]) -> Result<(), String> {
    let [base, new] = files else {
        return Err(usage());
    };
    let (base, new) = (load_saved(base)?, load_saved(new)?);
    let hosts: std::collections::BTreeSet<&str> =
        base.iter().chain(&new).map(|s| s.host.as_str()).collect();
    if hosts.len() > 1 {
        return Err(format!(
            "refusing to compare results from different hosts: {}",
            hosts.into_iter().collect::<Vec<_>>().join(", ")
        ));
    }
    let keys: std::collections::BTreeSet<&str> = base.iter().map(|s| s.key.as_str()).collect();
    for key in keys {
        println!("## {key}");
        println!(
            "{:<34} {:>14} {:>14} {:>9} {:>10} {:>10}",
            "metric", "base p50", "new p50", "change", "base IQR", "new IQR"
        );
        let pick = |set: &[Saved], name: &str| -> Vec<f64> {
            set.iter()
                .filter(|s| s.key == key)
                .filter_map(|s| s.metrics.get(name).copied())
                .collect()
        };
        let names: Vec<String> = base
            .iter()
            .find(|s| s.key == key)
            .map(|s| s.metrics.keys().cloned().collect())
            .unwrap_or_default();
        for name in names {
            let (a, b) = (pick(&base, &name), pick(&new, &name));
            if b.is_empty() {
                continue;
            }
            let iqr = |v: &[f64]| {
                let m = median(v);
                if m == 0.0 {
                    0.0
                } else {
                    (quantile(v, 0.75) - quantile(v, 0.25)) / m
                }
            };
            let (ma, mb) = (median(&a), median(&b));
            let change = if ma == 0.0 { 0.0 } else { mb / ma - 1.0 };
            println!(
                "{name:<34} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>9.2}% {:>9.2}%",
                change * 100.0,
                iqr(&a) * 100.0,
                iqr(&b) * 100.0
            );
        }
    }
    Ok(())
}
