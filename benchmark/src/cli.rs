//! The command line: strict — an unknown subcommand, flag, workload or a
//! malformed value is a usage error (exit code 2), never a silent default.

use std::path::PathBuf;

use crate::spec;

pub const USAGE: &str = "\
usage: benchmark <command> [flags]

commands:
  run            run one workload (--workload) or, without it, every workload,
                 each in a child process; check every result; print every metric
  repeat N       run the suite N times on seeds seed, seed+1, ... and print per
                 workload x end-to-end metric min / median / max and the quartile
                 spread; exit 1 if a spread exceeds the metric's bound
  list           workloads, metrics, units, directions, bounds, which layer
                 metric moves which end-to-end metric
  regen-golden   rewrite benchmark/golden/seed42.json from the engine's answers,
                 cross-checked against the reference interpreter on persons=100

flags (run, repeat):
  --workload NAME   operational | analytical | pipeline | concurrent_small | frontend_cold
  --seed N          seed of schedules and of the novel-shape pool (default 42)
  --seconds N       measure for about N seconds per workload (default 15)
  --passes N        run exactly N timed passes instead of measuring for --seconds
  --trace 0|1       0: the untraced run, printing end-to-end metrics; 1: the traced
                    run, printing per-layer metrics (default: both; repeat: 0)
  --out DIR         where result.json and trace.json go (default benchmark/out)
";

#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub passes: Option<usize>,
    /// `None`: both runs, untraced first.
    pub trace: Option<bool>,
    pub out: PathBuf,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workload: None,
            seed: 42,
            seconds: 15.0,
            passes: None,
            trace: None,
            out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunOptions),
    Repeat(usize, RunOptions),
    List,
    RegenGolden,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a valid number"))
}

fn run_options(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    spec::workload(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?
                        .name,
                );
            }
            "--seed" => options.seed = number(flag, value()?)?,
            "--seconds" => {
                options.seconds = number(flag, value()?)?;
                if !(options.seconds > 0.0 && options.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--passes" => {
                let passes: usize = number(flag, value()?)?;
                if passes == 0 {
                    return Err("--passes must be at least 1".to_string());
                }
                options.passes = Some(passes);
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => Some(false),
                    "1" => Some(true),
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => options.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".to_string());
    };
    let no_arguments = |command: Command| {
        if rest.is_empty() {
            Ok(command)
        } else {
            Err(format!("`{}` takes no arguments", args[0]))
        }
    };
    match command.as_str() {
        "run" => Ok(Command::Run(run_options(rest)?)),
        "repeat" => {
            let Some((count, rest)) = rest.split_first() else {
                return Err("repeat needs a count".to_string());
            };
            let count: usize = number("repeat", count)?;
            if count < 2 {
                return Err("repeat needs at least 2 runs to compare".to_string());
            }
            Ok(Command::Repeat(count, run_options(rest)?))
        }
        "list" => no_arguments(Command::List),
        "regen-golden" => no_arguments(Command::RegenGolden),
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let command = parse(&args(
            "run --workload pipeline --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        let Command::Run(options) = command else {
            panic!("not a run");
        };
        assert_eq!(options.workload, Some("pipeline"));
        assert_eq!(options.seed, 7);
        assert_eq!(options.seconds, 10.0);
        assert_eq!(options.trace, Some(true));
    }

    #[test]
    fn anything_unknown_is_an_error() {
        for line in [
            "",
            "bogus",
            "run --bogus",
            "run --workload nope",
            "run --seed",
            "run --seed x",
            "run --trace yes",
            "run --passes 0",
            "run --seconds 0",
            "run extra",
            "repeat",
            "repeat 1",
            "repeat three",
            "list --all",
            "regen-golden now",
        ] {
            assert!(parse(&args(line)).is_err(), "`{line}` must be rejected");
        }
    }

    #[test]
    fn repeat_takes_a_count_then_flags() {
        let command = parse(&args("repeat 5 --seconds 3 --workload analytical")).unwrap();
        let Command::Repeat(count, options) = command else {
            panic!("not a repeat");
        };
        assert_eq!(count, 5);
        assert_eq!(options.seconds, 3.0);
        assert_eq!(options.workload, Some("analytical"));
    }
}
