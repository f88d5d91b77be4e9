//! `accpar` — command-line planner and simulator.
//!
//! ```text
//! accpar models
//! accpar plan     --model vgg16 --batch 512 --v2 128 --v3 128 [--levels H]
//!                 [--strategy dp|owt|hypar|accpar|all] [--json]
//! accpar simulate --model resnet18 --batch 512 --v2 4 --v3 4
//!                 [--strategy accpar] [--optimizer sgd|momentum|adam]
//! accpar memory   --model vgg16 --batch 512 --v2 4 --v3 4
//!                 [--strategy accpar] [--optimizer adam]
//! accpar supervise --model alexnet --batch 256 --v2 2 --v3 2
//!                 [--seed N] [--events N]
//! ```

use accpar::prelude::*;
use accpar::sim::{memory_report, Optimizer};
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    flags.insert(name.to_owned(), it.next().expect("peeked").clone());
                }
                _ => switches.push(name.to_owned()),
            }
        }
        Ok(Self { flags, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects a positive integer, got `{v}`")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn usage() -> &'static str {
    "usage:
  accpar models
  accpar plan     --model <name> [--batch N] [--v2 N] [--v3 N] [--levels H]
                  [--strategy dp|owt|hypar|accpar|all] [--json] [--explain]
                  [--deadline-ms N] [--max-nodes N] [--no-iso]
                  [--cache-dir PATH] [--cache-cap N] [--no-cache]
  accpar simulate --model <name> [--batch N] [--v2 N] [--v3 N] [--levels H]
                  [--strategy dp|owt|hypar|accpar] [--optimizer sgd|momentum|adam]
  accpar memory   --model <name> [--batch N] [--v2 N] [--v3 N] [--levels H]
                  [--strategy dp|owt|hypar|accpar] [--optimizer sgd|momentum|adam]
  accpar supervise --model <name> [--batch N] [--v2 N] [--v3 N] [--levels H]
                  [--seed N] [--events N]

defaults: --batch 512 --v2 4 --v3 4 --strategy accpar --cache-cap 256

supervise replays a seeded random hardware-health timeline (degrade /
fail / recover / bandwidth-jitter, --events of them) through the live
replanning supervisor and prints every debounced decision plus the
availability / MTTR summary; the same --seed reproduces the run
byte-for-byte

the plan cache: --cache-dir enables the crash-safe persistent plan
cache (hits are re-validated before serving; corrupt records are
quarantined, never served); --cache-cap alone enables a memory-only
cache; --no-cache disables caching entirely

--no-iso disables isomorphism collapse in the AccPar search (plans are
bit-identical either way; the switch exists to cross-check and to
measure the collapse speedup)"
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a [`PlanTree`] to a compact JSON object: per-node type
/// string, per-layer `{type, alpha}` entries, and recursive children.
fn plan_tree_json(tree: &PlanTree) -> String {
    let layers: Vec<String> = tree
        .plan()
        .layers()
        .iter()
        .map(|entry| {
            format!(
                "{{\"type\": \"{}\", \"alpha\": {}}}",
                entry.ptype,
                entry.ratio.value()
            )
        })
        .collect();
    let children = match tree.children() {
        None => String::from("null"),
        Some((l, r)) => format!("[{}, {}]", plan_tree_json(l), plan_tree_json(r)),
    };
    format!(
        "{{\"types\": \"{}\", \"layers\": [{}], \"children\": {}}}",
        tree.plan().type_string(),
        layers.join(", "),
        children
    )
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Ok(match name {
        "dp" => Strategy::DataParallel,
        "owt" => Strategy::Owt,
        "hypar" => Strategy::HyPar,
        "accpar" => Strategy::AccPar,
        other => return Err(format!("unknown strategy `{other}`")),
    })
}

fn parse_optimizer(name: &str) -> Result<Optimizer, String> {
    Ok(match name {
        "sgd" => Optimizer::Sgd,
        "momentum" => Optimizer::Momentum,
        "adam" => Optimizer::Adam,
        other => return Err(format!("unknown optimizer `{other}`")),
    })
}

struct Setup {
    network: Network,
    array: AcceleratorArray,
    levels: Option<usize>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let model = args.get("model").ok_or("--model is required")?;
    let batch = args.usize_or("batch", 512)?;
    let v2 = args.usize_or("v2", 4)?;
    let v3 = args.usize_or("v3", 4)?;
    if v2 + v3 == 0 {
        return Err("the array needs at least one board".into());
    }
    let network = zoo::by_name(model, batch).map_err(|e| e.to_string())?;
    let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
    let levels = match args.get("levels") {
        None => None,
        Some(_) => Some(args.usize_or("levels", 0)?),
    };
    Ok(Setup {
        network,
        array,
        levels,
    })
}

fn request<'a>(setup: &'a Setup) -> PlanRequest<'a> {
    let request = Planner::builder(&setup.network, &setup.array).sim_config(SimConfig::default());
    match setup.levels {
        Some(levels) => request.levels(levels),
        None => request,
    }
}

fn planner<'a>(setup: &'a Setup) -> Result<Planner<'a>, String> {
    request(setup).build().map_err(|e| e.to_string())
}

fn cmd_models() -> Result<(), String> {
    println!("evaluation suite:");
    for name in zoo::EVALUATION_NAMES {
        let net = zoo::by_name(name, 1).map_err(|e| e.to_string())?;
        println!("  {name:<10} {}", net.stats());
    }
    println!("extensions:");
    for name in ["resnet101", "resnet152", "googlenet", "gpt2_xl", "deep48", "deep96"] {
        let net = zoo::by_name(name, 1).map_err(|e| e.to_string())?;
        println!("  {name:<10} {}", net.stats());
    }
    Ok(())
}

/// Parses an optional `--<name> N` flag as `u64`.
fn u64_flag(args: &Args, name: &str) -> Result<Option<u64>, String> {
    match args.get(name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name} expects a non-negative integer, got `{v}`")),
    }
}

/// Builds the plan cache requested by `--cache-dir` / `--cache-cap`,
/// or `None` when caching is off (`--no-cache`, or neither flag given).
/// A persistent cache that cannot reach its directory degrades to
/// memory-only inside [`PlanCache::open`] — never an error here.
fn cache_from_args(args: &Args) -> Result<Option<std::sync::Arc<PlanCache>>, String> {
    if args.has("no-cache") {
        return Ok(None);
    }
    let cap = args.usize_or("cache-cap", 256)?;
    if cap == 0 {
        return Err("--cache-cap must be at least 1 (or pass --no-cache)".into());
    }
    match args.get("cache-dir") {
        Some(dir) => Ok(Some(std::sync::Arc::new(PlanCache::open(
            std::path::Path::new(dir),
            cap,
            Obs::off(),
        )))),
        None if args.get("cache-cap").is_some() => {
            Ok(Some(std::sync::Arc::new(PlanCache::memory(cap))))
        }
        None => Ok(None),
    }
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let setup = setup(args)?;
    let deadline = u64_flag(args, "deadline-ms")?.map(std::time::Duration::from_millis);
    let max_nodes = u64_flag(args, "max-nodes")?;
    let mut base = request(&setup);
    if args.has("no-iso") {
        base = base.iso(false);
    }
    let cache = cache_from_args(args)?;
    if let Some(cache) = &cache {
        base = base.plan_cache(std::sync::Arc::clone(cache));
        if cache.persistent() {
            let report = cache.load_report();
            eprintln!(
                "cache: {} record(s) warm-loaded from {}{}",
                report.loaded,
                args.get("cache-dir").unwrap_or("?"),
                if report.quarantined > 0 {
                    format!(", {} quarantined", report.quarantined)
                } else {
                    String::new()
                }
            );
        }
    }
    let strategies: Vec<Strategy> = match args.get("strategy").unwrap_or("accpar") {
        "all" => Strategy::ALL.to_vec(),
        name => vec![parse_strategy(name)?],
    };
    let mut dp_ms = None;
    for strategy in strategies {
        // One request per strategy, each with a fresh budget: the
        // deadline runs from the start of its own plan.
        let mut budget = Budget::unlimited();
        if let Some(deadline) = deadline {
            budget = budget.deadline(deadline);
        }
        if let Some(nodes) = max_nodes {
            budget = budget.max_nodes(nodes);
        }
        let outcome = base
            .clone()
            .budget(budget)
            .build()
            .and_then(|planner| planner.plan_outcome(strategy))
            .map_err(|e| e.to_string())?;
        let stop_note = match &outcome {
            PlanOutcome::Complete(_) => String::new(),
            PlanOutcome::Partial(p) => format!(
                "   [partial: {:.0}% solved, stop: {}]",
                p.completeness() * 100.0,
                p.reason()
            ),
        };
        let completeness = outcome.completeness();
        let stop_json = match &outcome {
            PlanOutcome::Complete(_) => String::from("null"),
            PlanOutcome::Partial(p) => format!("\"{}\"", p.reason().label()),
        };
        let planned = outcome.into_planned();
        let ms = planned.modeled_cost() * 1e3;
        if args.has("json") {
            println!(
                "{{\n  \"network\": \"{}\",\n  \"strategy\": \"{}\",\n  \"levels\": {},\n  \"step_ms\": {},\n  \"completeness\": {},\n  \"stop\": {},\n  \"plan\": {}\n}}",
                json_escape(setup.network.name()),
                strategy,
                planned.plan().depth(),
                ms,
                completeness,
                stop_json,
                plan_tree_json(planned.plan()),
            );
        } else {
            let speedup = match dp_ms {
                Some(dp) => format!("  ({:.2}x vs DP)", dp / ms),
                None => String::new(),
            };
            if strategy == Strategy::DataParallel {
                dp_ms = Some(ms);
            }
            println!(
                "{:>6}: {ms:10.3} ms/step{speedup}   top-level {}{stop_note}",
                strategy.to_string(),
                planned.plan().plan().type_string()
            );
            if args.has("explain") {
                let view = setup.network.train_view().map_err(|e| e.to_string())?;
                let mut layers: Vec<_> = view.layers().collect();
                layers.sort_by_key(|l| l.index());
                let counts = planned.plan().per_layer_type_counts();
                println!("        {:<14} {:<18} {:>7} {:>8} {:>9}", "layer", "top-level", "I", "II", "III");
                for (layer, (entry, c)) in layers
                    .iter()
                    .zip(planned.plan().plan().layers().iter().zip(&counts))
                {
                    println!(
                        "        {:<14} {:<18} {:>7} {:>8} {:>9}",
                        layer.name(),
                        entry.to_string(),
                        c[0],
                        c[1],
                        c[2]
                    );
                }
            }
        }
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        eprintln!(
            "cache: {} hit(s), {} miss(es){}{}",
            stats.hits,
            stats.misses,
            if stats.poisoned > 0 {
                format!(", {} poisoned", stats.poisoned)
            } else {
                String::new()
            },
            if cache.persistent() { "" } else { " (memory-only)" }
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let setup = setup(args)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("accpar"))?;
    let update = args.get("optimizer").map(parse_optimizer).transpose()?;
    let sim_config = SimConfig {
        update,
        ..SimConfig::default()
    };
    let planner = request(&setup)
        .sim_config(sim_config)
        .build()
        .map_err(|e| e.to_string())?;
    let planned = planner.plan(strategy).map_err(|e| e.to_string())?;
    println!(
        "{} under {} on {}:",
        setup.network.name(),
        strategy,
        setup.array
    );
    println!("  {}", planned.report());
    let steps = planned.report().steps_per_sec().unwrap_or(0.0);
    println!(
        "  throughput {:.2} steps/s ({:.1} samples/s)",
        steps,
        steps * setup.network.batch() as f64
    );
    Ok(())
}

fn cmd_memory(args: &Args) -> Result<(), String> {
    let setup = setup(args)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("accpar"))?;
    let optimizer = args
        .get("optimizer")
        .map(parse_optimizer)
        .transpose()?
        .unwrap_or_default();
    let planner = planner(&setup)?;
    let planned = planner.plan(strategy).map_err(|e| e.to_string())?;
    let view = setup.network.train_view().map_err(|e| e.to_string())?;
    let tree = GroupTree::bisect(&setup.array, planned.plan().depth()).map_err(|e| e.to_string())?;
    let report = memory_report(
        &view,
        planned.plan(),
        &tree,
        &SimConfig::default(),
        optimizer,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{} under {} with {} optimizer: {}",
        setup.network.name(),
        strategy,
        optimizer,
        report
    );
    Ok(())
}

/// Replays a seeded health timeline through the live-replanning
/// supervisor and prints the decision log and aggregate metrics.
fn cmd_supervise(args: &Args) -> Result<(), String> {
    let setup = setup(args)?;
    let seed = u64_flag(args, "seed")?.unwrap_or(0xacc9a7);
    let events = args.usize_or("events", 80)?;
    // Not `request(..)`: the supervisor compares plans with the
    // request's default, cost-model-aligned simulator.
    let mut request = Planner::builder(&setup.network, &setup.array);
    if let Some(levels) = setup.levels {
        request = request.levels(levels);
    }
    let mut sup = request
        .build()
        .and_then(|planner| planner.supervise(SuperviseConfig::default()))
        .map_err(|e| e.to_string())?;
    let schedule = HealthSchedule::random(seed, sup.leaf_count(), sup.cut_count(), events)
        .map_err(|e| e.to_string())?;
    let report = sup.run(&schedule).map_err(|e| e.to_string())?;
    println!(
        "{} on {} (seed {seed}, {events} health events):",
        setup.network.name(),
        setup.array
    );
    for decision in &report.decisions {
        println!("  {decision}");
    }
    let mttr = report
        .mttr
        .map_or_else(|| String::from("n/a"), |m| format!("{m:.3}"));
    println!(
        "  {} decision(s), {} replan(s), {} retrie(s), availability {:.4}, \
         mttr {mttr}, steady degradation {:.3}x",
        report.decisions.len(),
        report.replans,
        report.retries,
        report.availability,
        report.steady_degradation,
    );
    match sup.plan() {
        Some(plan) => println!(
            "  serving: {} (healthy baseline: {})",
            plan.plan().type_string(),
            if plan == sup.healthy_plan() { "yes" } else { "no" }
        ),
        None => println!("  serving: shed (no viable plan on the surviving hardware)"),
    }
    if !sup.faults().is_empty() {
        println!("  terminal faults: {}", sup.faults());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "models" => cmd_models(),
        "plan" => cmd_plan(&args),
        "simulate" => cmd_simulate(&args),
        "memory" => cmd_memory(&args),
        "supervise" => cmd_supervise(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn args_parse_flags_and_switches() {
        let args = Args::parse(&argv(&[
            "--model", "vgg16", "--batch", "256", "--json", "--explain",
        ]))
        .unwrap();
        assert_eq!(args.get("model"), Some("vgg16"));
        assert_eq!(args.usize_or("batch", 1).unwrap(), 256);
        assert!(args.has("json"));
        assert!(args.has("explain"));
        assert!(!args.has("quiet"));
    }

    #[test]
    fn args_reject_positional() {
        assert!(Args::parse(&argv(&["vgg16"])).is_err());
    }

    #[test]
    fn args_default_integers() {
        let args = Args::parse(&argv(&["--model", "lenet"])).unwrap();
        assert_eq!(args.usize_or("batch", 512).unwrap(), 512);
        assert!(Args::parse(&argv(&["--batch", "abc"]))
            .unwrap()
            .usize_or("batch", 1)
            .is_err());
    }

    #[test]
    fn strategy_and_optimizer_names() {
        assert_eq!(parse_strategy("dp").unwrap(), Strategy::DataParallel);
        assert_eq!(parse_strategy("accpar").unwrap(), Strategy::AccPar);
        assert!(parse_strategy("zzz").is_err());
        assert_eq!(parse_optimizer("adam").unwrap(), Optimizer::Adam);
        assert!(parse_optimizer("lion").is_err());
    }

    #[test]
    fn cache_flags_select_the_right_mode() {
        // Default: no cache.
        let args = Args::parse(&argv(&["--model", "lenet"])).unwrap();
        assert!(cache_from_args(&args).unwrap().is_none());
        // --no-cache wins even when a directory is given.
        let args = Args::parse(&argv(&[
            "--model", "lenet", "--cache-dir", "/tmp/x", "--no-cache",
        ]))
        .unwrap();
        assert!(cache_from_args(&args).unwrap().is_none());
        // --cache-cap alone enables a memory-only cache.
        let args =
            Args::parse(&argv(&["--model", "lenet", "--cache-cap", "8"])).unwrap();
        let cache = cache_from_args(&args).unwrap().expect("memory cache");
        assert!(!cache.persistent());
        // Zero capacity is rejected with a pointer to --no-cache.
        let args =
            Args::parse(&argv(&["--model", "lenet", "--cache-cap", "0"])).unwrap();
        assert!(cache_from_args(&args).is_err());
    }

    #[test]
    fn cache_dir_flag_opens_a_persistent_cache() {
        let dir = std::env::temp_dir().join(format!(
            "accpar-cli-cache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_owned();
        let args =
            Args::parse(&argv(&["--model", "lenet", "--cache-dir", &dir_s])).unwrap();
        let cache = cache_from_args(&args).unwrap().expect("persistent cache");
        assert!(cache.persistent());
        assert_eq!(cache.load_report().loaded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn setup_builds_network_and_array() {
        let args = Args::parse(&argv(&[
            "--model", "lenet", "--batch", "16", "--v2", "1", "--v3", "3",
        ]))
        .unwrap();
        let s = setup(&args).unwrap();
        assert_eq!(s.network.batch(), 16);
        assert_eq!(s.array.len(), 4);
        assert!(s.levels.is_none());
    }

    #[test]
    fn setup_rejects_unknown_model_and_empty_array() {
        let args = Args::parse(&argv(&["--model", "nope"])).unwrap();
        assert!(setup(&args).is_err());
        let args =
            Args::parse(&argv(&["--model", "lenet", "--v2", "0", "--v3", "0"])).unwrap();
        assert!(setup(&args).is_err());
    }
}
