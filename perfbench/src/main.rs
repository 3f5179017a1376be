//! The repository benchmark.
//!
//! One command runs a named workload from a seed on one thread, measures it
//! for a fixed time, checks its outputs and prints one JSON result line:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_fleet --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics
//! ([`report::END_TO_END`]); with `--trace 1` it carries the per-layer
//! metrics ([`report::PER_LAYER`]) and the spans recorded around every call
//! into a layer are written to `.bench_trace/`. Every layer is read from
//! outside, through the crates' public API. See `README.md` for the
//! workloads, the metrics and the measured spreads.

mod layers;
mod paper;
mod report;
mod serve;
mod span;
mod stats;

use std::time::Instant;

use report::Outcome;
use span::Tracer;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation flow over the 7-model zoo.
    PaperEval,
    /// 90 replicas plus 12 TP=2 gangs under Poisson multi-tenant traffic.
    ServeFleet,
    /// One EXION4 instance under bursty traffic at twice its capacity.
    ServeBacklog,
    /// An auto-placed 8-instance budget with preemption, deadline
    /// admission and seeded crashes.
    ServeControl,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperEval,
        Workload::ServeFleet,
        Workload::ServeBacklog,
        Workload::ServeControl,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::ServeFleet => "serve_fleet",
            Workload::ServeBacklog => "serve_backlog",
            Workload::ServeControl => "serve_control",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall seconds the timed section runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

const USAGE: &str =
    "usage: exion-perfbench --workload <paper_eval|serve_fleet|serve_backlog|serve_control> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The fewest timed passes a run makes, however long each pass takes.
const MIN_PASSES: usize = 3;

/// One timed pass: its checked result, the wall seconds of the set-up it
/// started from, and the wall seconds of the pass itself.
#[derive(Debug)]
pub struct Timed<T> {
    /// What the pass's check returned.
    pub result: T,
    /// Set-up wall time (s).
    pub setup_s: f64,
    /// Pass wall time (s).
    pub run_s: f64,
}

/// Runs passes until `seconds` of wall time are spent (at least
/// [`MIN_PASSES`] of them). Every pass starts from a fresh `setup()`, timed
/// apart, so the set-ups sample the whole run rather than its first
/// milliseconds; `check` summarizes and checks each pass's output outside
/// the timed section.
pub fn timed_passes<S, R, T>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> R,
    mut check: impl FnMut(usize, &S, R) -> T,
) -> Vec<Timed<T>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let mut state = std::hint::black_box(setup());
        let t1 = Instant::now();
        let output = std::hint::black_box(run(&mut state));
        let run_s = t1.elapsed().as_secs_f64();
        out.push(Timed {
            result: check(out.len(), &state, output),
            setup_s: (t1 - t0).as_secs_f64(),
            run_s,
        });
    }
    out
}

/// Host throughput of a run: the operations of one pass over the mean wall
/// time of the slowest quarter of its passes.
///
/// On a shared host the same pass runs up to 1.6x faster in spells of a few
/// seconds when the neighbours go quiet, and whether a run catches such
/// spells is chance. The slowest quarter reads the loaded state the host
/// sits in most of the time; across runs of each workload it spread
/// 0.09-0.12 (quartile distance over median) where the total time and the
/// median pass spread 0.15-0.24. `README.md` has the measurements.
pub fn ops_per_s(ops_per_pass: usize, pass_s: &[f64]) -> f64 {
    ops_per_pass as f64 / stats::upper_quarter_mean(pass_s)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exion-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome: Outcome = match args.workload {
        Workload::PaperEval => paper::run(&args, &mut tracer),
        _ => serve::run(&args, &mut tracer),
    };
    if args.trace {
        let path = format!(
            ".bench_trace/{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        match tracer.write_json(&path) {
            Ok(()) => eprintln!("exion-perfbench: spans written to {path}"),
            Err(e) => eprintln!("exion-perfbench: could not write {path}: {e}"),
        }
    }
    println!("{}", outcome.to_json(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve_backlog --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeBacklog);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper_eval --seed x --seconds 1 --trace 0",
            "--workload paper_eval --seed 1 --seconds 0 --trace 0",
            "--workload paper_eval --seed 1 --seconds 1 --trace 2",
            "--workload paper_eval --seed 1 --seconds 1",
            "--workload paper_eval --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn timed_passes_runs_at_least_the_minimum() {
        let passes = timed_passes(0.0, || 5, |state| *state * 10, |i, _, out| i + out);
        assert_eq!(passes.len(), MIN_PASSES);
        assert_eq!(passes[2].result, 52);
    }

    /// A traced run of `workload` at reduced size: six-iteration shrunk
    /// models, or about 1 500 arrivals.
    fn small_run(workload: Workload, seed: u64) -> Outcome {
        let args = Args {
            workload,
            seed,
            seconds: 1.0,
            trace: true,
        };
        let mut tracer = Tracer::new(true);
        match workload {
            Workload::PaperEval => paper::run_sized(&args, &mut tracer, Some(6)),
            _ => serve::run_sized(&args, &mut tracer, 1_500),
        }
    }

    /// The metrics a run computes from the simulation alone, which must
    /// repeat bit for bit at a fixed seed: everything but host times,
    /// host throughput, host memory and the benchmark's own pass count.
    fn deterministic(o: &Outcome) -> Vec<(&'static str, f64)> {
        let host_units = ["s", "us", "ns", "ops/s", "MB"];
        report::END_TO_END
            .iter()
            .chain(&report::PER_LAYER)
            .filter(|(name, unit)| !host_units.contains(unit) && !name.starts_with("bench."))
            .map(|&(name, _)| (name, o.metrics.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    #[test]
    fn every_workload_repeats_at_a_seed_and_moves_with_it() {
        for workload in Workload::ALL {
            let a = small_run(workload, 11);
            let b = small_run(workload, 11);
            let c = small_run(workload, 12);
            assert!(a.problems.is_empty(), "{workload:?}: {:?}", a.problems);
            assert!(a.attempted > 0, "{workload:?}");
            assert_eq!(deterministic(&a), deterministic(&b), "{workload:?}");
            assert_ne!(deterministic(&a), deterministic(&c), "{workload:?}");
            if workload != Workload::PaperEval {
                assert_eq!(a.failed, 0, "{workload:?}");
            }
        }
    }
}
