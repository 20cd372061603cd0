//! `xcheck`: run every invariant pass over the workspace and gate on the result.
//!
//! ```text
//! cargo run -p analyze               # human-readable findings, exit 1 if any
//! cargo run -p analyze -- --json     # full JSON report (findings + inventory + census)
//! cargo run -p analyze -- path/to/ws # analyze a different workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: xcheck [--json] [workspace-root]");
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }

    let ws = match liveupdate_analyze::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xcheck: cannot load workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if ws.files.is_empty() {
        eprintln!(
            "xcheck: no sources found under {} — wrong root?",
            root.display()
        );
        return ExitCode::FAILURE;
    }

    let report = liveupdate_analyze::run_all(&ws);
    if json {
        print!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        let census: usize = report
            .ordering_census
            .values()
            .flat_map(|m| m.values())
            .map(|&n| n as usize)
            .sum();
        eprintln!(
            "xcheck: {} files, {} unsafe sites, {} atomic orderings, {} contract \
             metrics — {} finding(s)",
            ws.files.len(),
            report.unsafe_inventory.len(),
            census,
            report.metric_contract.len(),
            report.findings.len()
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
