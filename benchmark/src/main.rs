//! End-to-end benchmark of the GesturePrint serving stack.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload point_socket --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `point_socket` — two identify-mode TCP connections replaying
//!   point-cloud streams open-loop at a fixed rate;
//! * `point_burst` — many classify-mode point-cloud sessions pushed as
//!   fast as the engine accepts them;
//! * `rd_burst` — the same burst over range-Doppler sessions (not a
//!   gated workload; the traced `point_burst` run replays its layers).
//!
//! Every run generates its inputs from `--seed`, sets the system up
//! several times (`setup_s` is the median), computes the expected
//! verdict of every segment by a per-sample reference pass, serves the
//! workload for `--seconds`, and checks every served verdict against
//! the reference. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! serves the workload once untraced and once traced, replays the same
//! inputs layer by layer, and prints the per-layer metrics plus the
//! tracing overhead. The last stdout line is the JSON result; the
//! engine's telemetry snapshot, stamped with provenance, goes to
//! `benchmark/out/<workload>-trace<0|1>.json` and traced spans to
//! `benchmark/out/<workload>.spans.csv`.

mod burst;
mod cpu;
mod inputs;
mod replay;
mod report;
mod setup;
mod socket;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop socket replay, identify mode.
    PointSocket,
    /// In-process point-cloud burst, classify mode.
    PointBurst,
    /// In-process range-Doppler burst.
    RdBurst,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "point_socket" => Some(Workload::PointSocket),
            "point_burst" => Some(Workload::PointBurst),
            "rd_burst" => Some(Workload::RdBurst),
            _ => None,
        }
    }

    /// The workload's name as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointSocket => "point_socket",
            Workload::PointBurst => "point_burst",
            Workload::RdBurst => "rd_burst",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration of one serving phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: gp-e2e-bench --workload point_socket|point_burst|rd_burst --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report: Report = report::run(args);
    report.print();
    ExitCode::SUCCESS
}
