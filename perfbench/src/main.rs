use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads these knobs in its default constructors; the
    // benchmark pins every setting itself and refuses to run beside them.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CHERIVOKE_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: unset {knobs:?}: the benchmark pins its whole configuration");
        return ExitCode::from(2);
    }
    let Some(config) = perfbench::describe(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {:?}",
            args.workload,
            perfbench::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads} {config}",
        args.workload, args.seed, args.seconds, args.traced
    );
    let report = match perfbench::run(&args.workload, args.seed, args.seconds, args.traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: &[&str] = if args.traced {
        &perfbench::PER_LAYER
    } else {
        &perfbench::END_TO_END
    };
    let mut names: Vec<&str> = report.names().collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        eprintln!("perfbench: reported metrics {names:?} differ from the declared {want:?}");
        return ExitCode::FAILURE;
    }
    if report.failed > 0 {
        eprintln!("perfbench: {} calls failed", report.failed);
    }
    print!("{}", report.table());
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
