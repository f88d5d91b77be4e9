//! Writes the full evaluation's data to `experiments.json` for archival
//! and external plotting.
//!
//! ```sh
//! cargo run --release -p accpar-bench --bin archive
//! ```

use std::fs;

fn main() -> std::io::Result<()> {
    fs::write("experiments.json", accpar_bench::archive().pretty())?;
    println!("wrote experiments.json");
    Ok(())
}
