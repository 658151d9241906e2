//! The `eel` binary: thin wrapper over [`eel_cli::dispatch`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match eel_cli::dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eel: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
