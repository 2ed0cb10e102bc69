//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! tcni-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--smoke] [--commit <id>]
//! ```
//!
//! Prints the run record, every check with its attempted and failed
//! counts, the simulated-statistics digest and every metric with its unit,
//! then, as the last line, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).

use std::process::ExitCode;

use tcni_perfbench::{RunConfig, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    cfg: RunConfig,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut commit = "unknown".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--commit" => commit = value.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or(format!(
        "--workload is required (one of {})",
        WORKLOADS.join(", ")
    ))?;
    Ok(Args {
        workload,
        cfg,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcni-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    let env_threads = std::env::var("TCNI_THREADS").unwrap_or_else(|_| "unset".to_owned());
    let out = match tcni_perfbench::run(&args.workload, &cfg) {
        Ok(o) => o,
        Err(name) => {
            eprintln!(
                "tcni-perfbench: unknown workload {name} (one of {})",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let value = |name: &str| out.get(name).unwrap_or(0.0);
    println!(
        "run: workload={} seed={} seconds={} trace={} smoke={} commit={} nproc={} util.threads={} TCNI_THREADS={env_threads}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        args.commit,
        value("util.nproc"),
        value("util.threads"),
    );
    for note in &out.notes {
        println!("{note}");
    }
    for c in &out.checks {
        println!(
            "check {}: attempted {} failed {}{}",
            c.name,
            c.attempted,
            c.failed,
            if c.hard {
                ""
            } else {
                " (reported by the program: counted in error_ratio, not in failed)"
            }
        );
    }
    println!("digest {}: {:016x}", args.workload, out.digest);
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = out.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }

    let (attempted, failed) = out.totals();
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        // A per-layer metric of a layer this workload does not exercise is
        // 0; every end-to-end metric is measured by every workload.
        let v = match out.get(name) {
            Some(v) => v,
            None if cfg.trace => 0.0,
            None => {
                eprintln!("tcni-perfbench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        if !v.is_finite() {
            eprintln!("tcni-perfbench: {name} is not finite ({v})");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        out.correct(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
