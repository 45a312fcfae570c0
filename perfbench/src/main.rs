//! `perfbench prepare|measure`: the two steps `run.py` runs for one
//! workload and seed. See README.md.

use perfbench::dataset::{self, Dataset};
use perfbench::measure::{self, Options};
use perfbench::oracle::Oracle;
use perfbench::workload::{ServiceMix, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench prepare|measure --workload NAME --seed N --seconds S \
                     --work DIR [--trace 0|1] [--spans FILE]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, flags)) = args.split_first() else {
        return Err(USAGE.to_string());
    };
    let opts = parse(flags)?;
    match command.as_str() {
        "prepare" => prepare(&opts),
        "measure" => measure::run(&opts),
        _ => Err(USAGE.to_string()),
    }
}

fn parse(flags: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut work) = (None, None, None, None);
    let (mut trace, mut spans) = (false, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                seconds = Some(s.max(1));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--work" => work = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace,
        work: work.ok_or(USAGE)?,
        spans,
    })
}

/// Generate the dataset and write the oracle's answer to every query the
/// run may send.
fn prepare(opts: &Options) -> Result<(), String> {
    let w = opts.workload;
    let spec = w.spec(opts.seed);
    // A leftover directory would mix two datasets.
    if opts.work.exists() {
        std::fs::remove_dir_all(&opts.work)
            .map_err(|e| format!("clearing {}: {e}", opts.work.display()))?;
    }
    let data = Dataset::generate(&spec, &dataset::data_root(&opts.work))
        .map_err(|e| format!("generating the dataset: {e}"))?;
    let oracle = Oracle::new(&spec);
    let queries = match w {
        Workload::ServiceSmall => ServiceMix::new(opts.seed).queries,
        _ => w.pass(),
    };
    let answers: Vec<_> = queries.iter().map(|q| oracle.answer(&q.kind)).collect();
    dataset::write_expected(&opts.work, &answers)
        .map_err(|e| format!("writing the expected answers: {e}"))?;
    eprintln!("prepared {}", data.describe(w, opts.seed));
    Ok(())
}
