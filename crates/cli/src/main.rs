//! `smc` — command-line front end to the characterization framework.
//!
//! `smc help` lists every command; `smc <command> --help` lists one
//! command's flags. Both texts are generated from the flag tables in
//! `commands.rs`, which also drive argument parsing.
//!
//! Files use the litmus notation of `smc-history` (`p: w(x)1 r(y)0`; see
//! the README). Exit status is 1 when a check fails (a suite expectation
//! mismatches, a monitored model ends violated, a gate finds a
//! divergence) and 2 on a usage error.

use std::process::ExitCode;

mod commands;
mod json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{}", commands::usage_for(&args));
            ExitCode::from(2)
        }
    }
}
