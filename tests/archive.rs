//! The committed evaluation data stays current: `experiments.json`
//! holds what the `archive` binary rebuilds from today's code.

use accpar_bench::json::Json;

/// Compares `got` with `want`: numbers to 1e-9 relative, every other
/// value exactly, objects key by key whatever their order.
fn compare(path: &str, got: &Json, want: &Json, misses: &mut Vec<String>) {
    match (got, want) {
        (Json::Num(a), Json::Num(b)) => {
            if (a - b).abs() > 1e-9 * b.abs() {
                misses.push(format!("{path}: {a} vs committed {b}"));
            }
        }
        (Json::Arr(a), Json::Arr(b)) if a.len() == b.len() => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                compare(&format!("{path}[{i}]"), x, y, misses);
            }
        }
        (Json::Obj(a), Json::Obj(b)) if a.len() == b.len() => {
            for (key, y) in b {
                match got.get(key) {
                    Some(x) => compare(&format!("{path}.{key}"), x, y, misses),
                    None => misses.push(format!("{path}.{key}: not rebuilt")),
                }
            }
        }
        _ if got == want => {}
        _ => misses.push(format!(
            "{path}: {} vs committed {}",
            got.compact(),
            want.compact()
        )),
    }
}

#[test]
fn committed_evaluation_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/experiments.json");
    let text = std::fs::read_to_string(path).expect("experiments.json is committed");
    let committed = Json::parse(&text).expect("experiments.json is valid JSON");
    let mut misses = Vec::new();
    compare("", &accpar_bench::archive(), &committed, &mut misses);
    assert!(
        misses.is_empty(),
        "experiments.json is stale; regenerate it with \
         `cargo run -p accpar-bench --bin archive`:\n{}",
        misses.join("\n")
    );
}
