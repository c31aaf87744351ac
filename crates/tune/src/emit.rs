//! Machine-readable bench output: every `table*`/`fig*` binary emits a
//! `BENCH_<name>.json` next to its text table, in the same JSON dialect
//! the tuning cache uses, so perf-trajectory tooling consumes one
//! format.

use std::io;
use std::path::PathBuf;

use crate::Json;

/// Writes `BENCH_<name>.json` in the current directory and returns its
/// path. `rows` should be self-describing objects (column → value).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bench_json(name: &str, rows: Vec<Json>) -> io::Result<PathBuf> {
    let doc = Json::obj([
        ("bench", Json::Str(name.to_string())),
        ("schema_version", Json::Int(1)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.render_pretty())?;
    Ok(path)
}

/// Prints the standard "wrote …" trailer for a bench binary.
pub fn announce(result: io::Result<PathBuf>) {
    match result {
        Ok(path) => println!("\n[wrote {}]", path.display()),
        Err(e) => eprintln!("\n[failed to write bench json: {e}]"),
    }
}
