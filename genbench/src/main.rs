//! `genbench --workload <suite|scale|points|validated> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints diagnostics to stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! nonzero when any output fails its check.

use genbench::{Options, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("genbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    value(args, flag).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid value"))
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = value(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace: u8 = parsed(args, "--trace", 0)?;
    let opts = Options {
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        seconds: parsed(args, "--seconds", 10.0)?,
        trace: trace != 0,
        out_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    let outcome = genbench::run(workload, &opts)?;
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    if !outcome.layer_table.is_empty() {
        eprint!("{}", outcome.layer_table);
    }
    eprintln!(
        "workload {} seed {} fingerprint {:016x}",
        workload.name(),
        opts.seed,
        outcome.fingerprint
    );
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
