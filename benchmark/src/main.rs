//! The repository's benchmark. Everything is measured from outside the
//! engine, by timing calls into its public functions; see `README.md`.

mod cli;
mod golden;
mod layers;
mod process;
mod regen;
mod report;
mod rng;
mod run;
mod spec;
mod stats;
mod suite;
mod texts;
mod trace;
mod workload;

#[global_allocator]
static ALLOCATOR: process::CountingAllocator = process::CountingAllocator;

use std::process::ExitCode;

use cli::{Command, RunOptions};

/// Runs one workload in this process: the run the driver invokes. The last
/// line printed is the result object.
fn run_here(workload: &'static str, traced: bool, options: &RunOptions) -> Result<bool, String> {
    let report = if traced {
        layers::run_traced(workload, options)?
    } else {
        run::run_untraced(workload, options)?
    };
    suite::write_report(&options.out, &report)?;
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("error: {error}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Run(options) => match (options.workload, options.trace) {
            (Some(workload), Some(traced)) => run_here(workload, traced, &options),
            _ => suite::run_suite(&options).map(|reports| reports.iter().all(|r| r.correct())),
        },
        Command::Repeat(count, options) => suite::repeat(count, &options),
        Command::List => {
            suite::list();
            Ok(true)
        }
        Command::RegenGolden => regen::regen_golden().map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
