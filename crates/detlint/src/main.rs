//! Print the tracked non-test line count per crate as a markdown table.
//!
//! ```text
//! cargo run -p detlint -- --loc [--root PATH]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "USAGE: detlint --loc [--root PATH]

  --loc        print the non-blank lines outside #[cfg(test)] items of
               crates/*/src per crate, as a markdown table
  --root PATH  workspace root (default: the nearest ancestor of the
               current directory holding Cargo.toml and crates/)";

/// The nearest ancestor of the current directory that holds `Cargo.toml`
/// and a `crates/` directory (the workspace root, not a member).
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    let mut loc = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--loc" => loc = true,
            "--root" => root = args.next().map(PathBuf::from),
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !loc {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let per_crate = detlint::loc_by_crate(&root.unwrap_or_else(find_root));
    println!("| crate | non-test lines |\n|---|---:|");
    for (name, lines) in &per_crate {
        println!("| {name} | {lines} |");
    }
    println!("| **total** | **{}** |", per_crate.values().sum::<usize>());
    ExitCode::SUCCESS
}
