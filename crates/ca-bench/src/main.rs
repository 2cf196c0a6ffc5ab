//! `ca-bench repro [ID…]` regenerates the paper's artifacts (no ID: all of
//! them, in paper order); `ca-bench chaos-sweep` runs the recovery gate.
//! Exit codes: 0 ok, 1 an artifact could not be written or a gate failed,
//! 2 usage.

use ca_bench::{figures, Cli};

fn usage(msg: &str) -> ! {
    eprintln!("ca-bench: {msg}\n{}", Cli::USAGE);
    std::process::exit(2)
}

fn main() {
    let (words, cli) = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    let done = match words.split_first() {
        Some((cmd, ids)) if cmd == "repro" => {
            let rows = figures::select(ids).unwrap_or_else(|e| usage(&e));
            figures::repro(&rows, &cli).map(|()| true)
        }
        Some((cmd, [])) if cmd == "chaos-sweep" => ca_bench::chaos::chaos_sweep(&cli),
        _ => usage("expected `repro [ID…]` or `chaos-sweep`"),
    };
    match done {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("ca-bench: {e}");
            std::process::exit(1)
        }
    }
}
