//! The five workloads. Each builds its inputs from the seed, sets up
//! (three times, reporting the median), runs its timed window, checks
//! every output outside the timed intervals, and with tracing on
//! replays the window's ops through the traced decomposition.

use crate::stats::{self, median, Rng, Zipf};
use crate::sut::{self, AcceleratorArray, FaultModel, Network, Summary};
use crate::trace::Tracer;
use crate::{Ctx, Report};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported as `setup_s`.
const SETUP_REPS: usize = 3;

/// The timed window runs at least this many ops, so `p99_ms` always has
/// ten samples beyond it.
pub const MIN_SAMPLES: usize = 1000;

/// Batch size of every plan request, as in the paper's evaluation.
const BATCH: usize = 512;

/// The paper's nine CNNs (Fig. 5/6).
const CNNS: [&str; 9] = [
    "lenet", "alexnet", "vgg11", "vgg13", "vgg16", "vgg19", "resnet18", "resnet34", "resnet50",
];

/// Networks built from repeated blocks.
const STACKS: [&str; 6] = [
    "bert_base",
    "gpt2_small",
    "vit_b16",
    "gpt2_xl",
    "deep48",
    "deep96",
];

/// The twelve-model evaluation zoo.
const ZOO: [&str; 12] = [
    "lenet",
    "alexnet",
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg19",
    "resnet18",
    "resnet34",
    "resnet50",
    "bert_base",
    "gpt2_small",
    "vit_b16",
];

/// Span names of the traced decomposition and the metric each feeds
/// (the span's median self time).
const SPAN_METRICS: [(&str, &str); 14] = [
    ("dnn.train_view", "dnn.train_view_us"),
    ("dnn.iso", "dnn.iso_us"),
    ("search", "search.us"),
    ("sim.bsp", "sim.bsp_us"),
    ("sim.des", "sim.des_us"),
    ("cache.key", "cache.key_us"),
    ("cache.lookup", "cache.lookup_us"),
    ("cache.crosscheck", "cache.crosscheck_us"),
    ("cache.insert", "cache.insert_us"),
    ("replan", "replan.us"),
    ("supervise.buffer", "supervise.buffer_us"),
    ("supervise.hold", "supervise.hold_us"),
    ("supervise.search", "supervise.search_us"),
    ("supervise.fallback", "supervise.fallback_us"),
];

// Seed streams, one per use, so workloads draw independent inputs.
const STREAM_CNN: u64 = 1;
const STREAM_STACKS: u64 = 2;
const STREAM_SERVE: u64 = 3;
const STREAM_SUPERVISE: u64 = 4;
const STREAM_SIM: u64 = 5;
const STREAM_SERVE_RANKING: u64 = 6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Runs `setup` [`SETUP_REPS`] times, each from nothing; returns the median
/// time and the last result.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous fixture first, so peak RSS sees one set-up.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((median(&mut secs), last.expect("at least one set-up ran")))
}

/// The timed window of a closed-loop workload.
struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    fn open(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    fn done(&self, samples: usize) -> bool {
        samples >= MIN_SAMPLES && self.start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Records the peak RSS so far (set-up and window).
    fn close(self, report: &mut Report) {
        report.peak_rss_mb = stats::peak_rss_mb();
    }
}

/// Per-layer metrics from a traced replay, then the span file.
fn finish_trace(ctx: &Ctx, report: &mut Report, tracer: &Tracer) {
    trace_metrics(report, tracer);
    write_trace(ctx, report, tracer);
}

fn write_trace(ctx: &Ctx, report: &mut Report, tracer: &Tracer) {
    let path = ctx
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.header.push(format!("spans: {}", path.display())),
        Err(e) => report.fail(format!("writing {}: {e}", path.display())),
    }
}

/// Span self times and the trace overhead against the untraced window.
/// Every root span recorded so far must be one op of the window.
fn trace_metrics(report: &mut Report, tracer: &Tracer) {
    report.spans = tracer.layers();
    for (span, metric) in SPAN_METRICS {
        let layer = report.spans.get(span).cloned().unwrap_or_default();
        report.layers.insert(metric, layer.p50_self_us);
    }
    let search = report.spans.get("search").map_or(0.0, |l| l.share);
    report.layers.insert("search.share", search);
    let replans = report.spans.get("replan").map_or(0, |l| l.count);
    report.layers.insert("replan.count", replans as f64);
    report.layers.insert(
        "harness.trace_overhead_pct",
        (tracer.root_secs() / report.busy_s - 1.0) * 100.0,
    );
}

fn insert_shares(report: &mut Report, summaries: &[Summary]) {
    report.layers.insert(
        "sim.compute_share",
        mean(summaries.iter().map(|s| s.compute_share)),
    );
    report.layers.insert(
        "sim.psum_share",
        mean(summaries.iter().map(|s| s.psum_share)),
    );
    report.layers.insert(
        "sim.conversion_share",
        mean(summaries.iter().map(|s| s.conversion_share)),
    );
}

fn paper_arrays() -> Vec<(&'static str, AcceleratorArray)> {
    vec![
        ("hetero128+128", sut::hetero(128, 128)),
        ("v3x128", sut::homogeneous_v3(128)),
        ("hetero4+4", sut::hetero(4, 4)),
    ]
}

fn networks(names: &[&str], batch: usize) -> Result<Vec<Network>, String> {
    names.iter().map(|name| sut::network(name, batch)).collect()
}

/// Key orders of a round-robin workload: every pass visits each of
/// `keys` keys exactly once, in a freshly shuffled order.
fn passes(seed: u64, stream: u64, keys: usize) -> impl Iterator<Item = Vec<usize>> {
    let mut rng = Rng::new(seed, stream);
    std::iter::repeat_with(move || rng.permutation(keys))
}

// --- plan_cold_cnn / plan_cold_stacks ------------------------------------

pub fn plan_cold_cnn(ctx: &Ctx) -> Result<Report, String> {
    plan_cold(ctx, &CNNS, STREAM_CNN)
}

pub fn plan_cold_stacks(ctx: &Ctx) -> Result<Report, String> {
    plan_cold(ctx, &STACKS, STREAM_STACKS)
}

/// Closed loop, one caller: cold-plan every (network, array) key once
/// per pass, each request through a fresh planner.
fn plan_cold(ctx: &Ctx, models: &[&str], stream: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, (nets, arrays)) = timed_setup(|| {
        let nets = networks(models, BATCH)?;
        let arrays = paper_arrays();
        for net in &nets {
            for (_, array) in &arrays {
                sut::plan(net, array)?;
            }
        }
        Ok((nets, arrays))
    })?;
    report.setup_s = setup_s;
    let keys: Vec<(usize, usize)> = (0..nets.len())
        .flat_map(|n| (0..arrays.len()).map(move |a| (n, a)))
        .collect();

    let mut ops = Vec::new();
    let mut results: Vec<Option<Summary>> = Vec::new();
    let mut first: Vec<Option<sut::PlannedNetwork>> = (0..keys.len()).map(|_| None).collect();
    let mut orders = passes(ctx.seed, stream, keys.len());
    let window = Window::open(ctx.seconds);
    while !window.done(ops.len()) {
        for k in orders.next().expect("passes never end") {
            let (n, a) = keys[k];
            let start = Instant::now();
            let planned = sut::plan(&nets[n], &arrays[a].1);
            let took = start.elapsed();
            report.record_op(took);
            ops.push(k);
            results.push(planned.as_ref().ok().map(sut::summary));
            match planned {
                Ok(p) => {
                    first[k].get_or_insert(p);
                }
                Err(e) => report.fail(format!("plan {}: {e}", key_label(&nets, &arrays, keys[k]))),
            }
        }
        report.end_block();
    }
    window.close(&mut report);

    // Every later pass returns the first pass's plan and cost, and the
    // cost re-simulates bit for bit.
    let reference: Vec<Option<Summary>> =
        first.iter().map(|p| p.as_ref().map(sut::summary)).collect();
    for (&k, result) in ops.iter().zip(&results) {
        if let (Some(got), Some(want)) = (result, &reference[k]) {
            if !got.same(want) {
                report.fail(format!(
                    "{} changed between passes",
                    key_label(&nets, &arrays, keys[k])
                ));
            }
        }
    }
    let mut speedups = Vec::new();
    for (k, planned) in first.iter().enumerate() {
        let (n, a) = keys[k];
        let Some(planned) = planned else { continue };
        let secs = sut::summary(planned).secs;
        match sut::step_secs(&nets[n], &arrays[a].1, planned, None) {
            Ok(again) if again.to_bits() == secs.to_bits() => {}
            Ok(_) => report.fail(format!(
                "{} modeled cost does not re-simulate",
                key_label(&nets, &arrays, keys[k])
            )),
            Err(e) => report.fail(e),
        }
        match sut::dp_secs(&nets[n], &arrays[a].1) {
            Ok(dp) => speedups.push(dp / secs),
            Err(e) => report.fail(e),
        }
    }
    report.speedup_vs_dp = geomean(&speedups);
    insert_shares(
        &mut report,
        &reference.iter().flatten().copied().collect::<Vec<_>>(),
    );

    if ctx.trace {
        let mut tracer = Tracer::new();
        let mut counters = Vec::new();
        for (i, &k) in ops.iter().enumerate() {
            let (n, a) = keys[k];
            match sut::plan_traced(&nets[n], &arrays[a].1, &mut tracer, i as u64) {
                Ok((got, c)) => {
                    counters.push(c);
                    if !results[i].is_some_and(|want| got.same(&want)) {
                        report.fail(format!("traced op {i} differs from the untraced result"));
                    }
                }
                Err(e) => report.fail(format!("traced op {i}: {e}")),
            }
        }
        report.traced_ops = ops.len();
        finish_trace(ctx, &mut report, &tracer);
        insert_search_counters(&mut report, &counters);

        // The parallel search, which the window leaves out: replay the
        // window's first passes through the facade on `ctx.threads`
        // threads. Each plan must match the serial plan bit for bit.
        let n = ops.len().min(MIN_SAMPLES.div_ceil(keys.len()) * keys.len());
        let threads = ctx.threads;
        let (cpu, wall) = (stats::cpu_seconds(), Instant::now());
        let mut busy = 0.0;
        for (i, &k) in ops[..n].iter().enumerate() {
            let (net, array) = (&nets[keys[k].0], &arrays[keys[k].1].1);
            let start = Instant::now();
            let planned = sut::plan_on(net, array, threads);
            busy += start.elapsed().as_secs_f64();
            match planned {
                Ok(p) if results[i].is_some_and(|want| sut::summary(&p).same(&want)) => {}
                Ok(_) => report.fail(format!("op {i} on {threads} threads differs from serial")),
                Err(e) => report.fail(format!("op {i} on {threads} threads: {e}")),
            }
        }
        report.layers.insert(
            "runtime.cpu_per_wall",
            (stats::cpu_seconds() - cpu) / wall.elapsed().as_secs_f64(),
        );
        let serial_s = report.latencies_ms[..n].iter().sum::<f64>() / 1e3;
        report
            .layers
            .insert("runtime.parallel_speedup", serial_s / busy);
        report.traced_ops += n;
    }
    Ok(report)
}

fn insert_search_counters(report: &mut Report, counters: &[sut::SearchCounters]) {
    let c = || counters.iter();
    report.layers.insert(
        "search.cells_requested",
        mean(c().map(|c| c.cells_requested as f64)),
    );
    report
        .layers
        .insert("search.memo_hit_ratio", mean(c().map(|c| c.memo_hit_ratio)));
    report.layers.insert(
        "search.level_hit_ratio",
        mean(c().map(|c| c.level_hit_ratio)),
    );
    report.layers.insert(
        "dnn.iso_collapse_ratio",
        mean(c().map(|c| c.iso_collapse_ratio)),
    );
}

fn key_label(
    nets: &[Network],
    arrays: &[(&str, AcceleratorArray)],
    (n, a): (usize, usize),
) -> String {
    format!("{} on {}", sut::label(&nets[n]), arrays[a].0)
}

// --- serve_persist -------------------------------------------------------

/// Plans the persistent cache holds.
const CACHE_CAP: usize = 32;
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.1;
/// Requests per stratified block of the Zipf draw.
const ZIPF_BLOCK: usize = 100;
/// Share of requests on the small array that carry a slow leaf.
const FAULT_SHARE: f64 = 0.05;
const SERVE_BATCHES: [usize; 2] = [256, 512];

/// One request of the served stream: a catalogue key and, for some
/// requests on the small array, one slowed leaf `(leaf, factor)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServeOp {
    key: usize,
    fault: Option<(usize, f64)>,
}

/// The serving catalogue: every zoo network at two batch sizes on the
/// three paper arrays. Key `k` is network `k / 3` on array `k % 3`.
struct Catalogue {
    nets: Vec<Network>,
    arrays: Vec<(&'static str, AcceleratorArray)>,
}

impl Catalogue {
    fn build() -> Result<Self, String> {
        let mut nets = Vec::new();
        for batch in SERVE_BATCHES {
            nets.extend(networks(&ZOO, batch)?);
        }
        Ok(Self {
            nets,
            arrays: paper_arrays(),
        })
    }

    fn len(&self) -> usize {
        self.nets.len() * self.arrays.len()
    }

    fn net(&self, key: usize) -> &Network {
        &self.nets[key / self.arrays.len()]
    }

    fn array(&self, key: usize) -> &AcceleratorArray {
        &self.arrays[key % self.arrays.len()].1
    }

    /// The small array, whose requests may carry a fault.
    fn faultable(&self, key: usize) -> bool {
        key % self.arrays.len() == 2
    }

    fn label(&self, key: usize) -> String {
        let array = self.arrays[key % self.arrays.len()].0;
        format!("{} on {array}", sut::label(self.net(key)))
    }
}

/// The seeded request stream: Zipf popularity over a fixed ranking of
/// the catalogue, drawn in stratified blocks. Ranks take the arrays in
/// turn, each array's networks in a fixed shuffled order, so every array
/// carries a steady share of the traffic. The ranking is the same for
/// every seed: which plans are hot sets the snapshot size and so the
/// cost of every miss, and a seed-dependent ranking made that cost swing
/// from seed to seed. The seed draws the requests.
struct RequestStream {
    rng: Rng,
    zipf: Zipf,
    ranking: Vec<usize>,
    block: Vec<usize>,
}

impl RequestStream {
    /// A stream over `nets` networks on `arrays` arrays, where key `k`
    /// is network `k / arrays` on array `k % arrays`.
    fn new(seed: u64, nets: usize, arrays: usize) -> Self {
        let orders: Vec<Vec<usize>> = (0..arrays)
            .map(|a| Rng::new(a as u64, STREAM_SERVE_RANKING).permutation(nets))
            .collect();
        let keys = nets * arrays;
        Self {
            rng: Rng::new(seed, STREAM_SERVE),
            ranking: (0..keys)
                .map(|r| orders[r % arrays][r / arrays] * arrays + r % arrays)
                .collect(),
            zipf: Zipf::new(keys, ZIPF_S),
            block: Vec::new(),
        }
    }

    fn next(&mut self, faultable: impl Fn(usize) -> bool) -> ServeOp {
        if self.block.is_empty() {
            self.block = self.zipf.block(&mut self.rng, ZIPF_BLOCK);
        }
        let key = self.ranking[self.block.pop().expect("blocks are non-empty")];
        let fault = (faultable(key) && self.rng.unit() < FAULT_SHARE)
            .then(|| (self.rng.below(8), 0.3 + 0.6 * self.rng.unit()));
        ServeOp { key, fault }
    }
}

fn faults_of(ops: &[ServeOp]) -> Result<Vec<Option<FaultModel>>, String> {
    ops.iter()
        .map(|op| {
            op.fault
                .map(|(leaf, factor)| sut::slow_leaf(leaf, factor))
                .transpose()
        })
        .collect()
}

fn requests<'a>(
    cat: &'a Catalogue,
    ops: &[ServeOp],
    faults: &'a [Option<FaultModel>],
) -> Vec<sut::Request<'a>> {
    ops.iter()
        .zip(faults)
        .map(|(op, faults)| sut::Request {
            net: cat.net(op.key),
            array: cat.array(op.key),
            faults: faults.as_ref(),
        })
        .collect()
}

/// Closed loop, one caller submitting one request per `plan_many` call
/// over a persistent plan cache warm-loaded from a snapshot.
pub fn serve_persist(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let cache_dir = ctx.run_dir.join("serve-cache");
    let snapshot = ctx.run_dir.join("serve-snapshot.jsonl");
    report.header.push(format!(
        "cache: {} ({})",
        cache_dir.display(),
        stats::filesystem_of(&ctx.run_dir)
    ));

    // Untimed prepare: serve the most popular keys once, so the window
    // starts from a warm snapshot.
    let cat = Catalogue::build()?;
    let stream = RequestStream::new(ctx.seed, cat.nets.len(), cat.arrays.len());
    {
        let cache = sut::open_cache(&cache_dir, CACHE_CAP);
        let ops: Vec<ServeOp> = stream.ranking[..CACHE_CAP]
            .iter()
            .map(|&key| ServeOp { key, fault: None })
            .collect();
        for served in sut::serve(
            &requests(&cat, &ops, &vec![None; ops.len()]),
            &sut::serve_config(&cache),
        ) {
            sut::served_summary(&served)?;
        }
    }
    copy(&sut::snapshot_file(&cache_dir), &snapshot)?;

    let mut open_ms = Vec::new();
    let (setup_s, (cat, cache)) = timed_setup(|| {
        let cat = Catalogue::build()?;
        let start = Instant::now();
        let cache = sut::open_cache(&cache_dir, CACHE_CAP);
        open_ms.push(ms(start.elapsed()));
        Ok((cat, cache))
    })?;
    report.setup_s = setup_s;
    report.layers.insert("cache.open_ms", median(&mut open_ms));
    let (loaded, quarantined) = sut::load_report(&cache);
    report.header.push(format!(
        "cache warm-load: {loaded} plans, {quarantined} quarantined"
    ));
    if quarantined > 0 {
        report.fail(format!("{quarantined} snapshot records quarantined"));
    }

    let config = sut::serve_config(&cache);
    let mut stream = stream;
    let mut ops: Vec<ServeOp> = Vec::new();
    let mut results: Vec<Result<Summary, String>> = Vec::new();
    let window = Window::open(ctx.seconds);
    while !window.done(ops.len()) {
        let op = [stream.next(|k| cat.faultable(k))];
        let faults = faults_of(&op)?;
        let request = requests(&cat, &op, &faults);
        let start = Instant::now();
        let served = sut::serve(&request, &config);
        report.record_op(start.elapsed());
        results.extend(served.iter().map(sut::served_summary));
        ops.extend(op);
        if ops.len().is_multiple_of(ZIPF_BLOCK) {
            report.end_block();
        }
    }
    window.close(&mut report);
    let (hits, misses, evictions) = sut::cache_counts(&cache);
    report.layers.insert(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.layers.insert(
        "cache.evictions_per_req",
        evictions as f64 / ops.len() as f64,
    );
    let snapshot_bytes = std::fs::metadata(sut::snapshot_file(&cache_dir)).map_or(0, |m| m.len());
    report
        .layers
        .insert("cache.snapshot_mb", snapshot_bytes as f64 / 1e6);
    drop(config);
    drop(cache);

    // Every healthy result is bit-identical to its key's cold plan, and
    // every faulted result is no slower than the healthy plan on the
    // same faulted hardware. The DP baselines cover the whole catalogue.
    let mut reference = Vec::with_capacity(cat.len());
    let mut speedups = Vec::with_capacity(cat.len());
    for key in 0..cat.len() {
        let planned = sut::plan(cat.net(key), cat.array(key))?;
        speedups.push(sut::dp_secs(cat.net(key), cat.array(key))? / sut::summary(&planned).secs);
        reference.push(planned);
    }
    report.speedup_vs_dp = geomean(&speedups);
    let faults = faults_of(&ops)?;
    let mut served_keys = Vec::new();
    for ((op, result), faults) in ops.iter().zip(&results).zip(&faults) {
        let want = &reference[op.key];
        let got = match result {
            Ok(got) => got,
            Err(e) => {
                report.fail(format!("serving {}: {e}", cat.label(op.key)));
                continue;
            }
        };
        match faults {
            None => {
                served_keys.push(op.key);
                if !got.same(&sut::summary(want)) {
                    report.fail(format!(
                        "served {} differs from its cold plan",
                        cat.label(op.key)
                    ));
                }
            }
            Some(faults) => {
                let stale = sut::step_secs(cat.net(op.key), cat.array(op.key), want, Some(faults))?;
                if got.secs > stale {
                    report.fail(format!(
                        "faulted {} is slower than the healthy plan",
                        cat.label(op.key)
                    ));
                }
            }
        }
    }
    served_keys.sort_unstable();
    served_keys.dedup();
    insert_shares(
        &mut report,
        &served_keys
            .iter()
            .map(|&k| sut::summary(&reference[k]))
            .collect::<Vec<_>>(),
    );

    if ctx.trace {
        // Replay the same requests one at a time from the same snapshot.
        let traced_dir = ctx.run_dir.join("serve-cache-traced");
        std::fs::create_dir_all(&traced_dir).map_err(|e| e.to_string())?;
        copy(&snapshot, &sut::snapshot_file(&traced_dir))?;
        let cache = sut::open_cache(&traced_dir, CACHE_CAP);
        let mut tracer = Tracer::new();
        let request_list = requests(&cat, &ops, &faults);
        let mut counters = Vec::new();
        for (i, request) in request_list.iter().enumerate() {
            match sut::serve_traced(request, &cache, &mut tracer, i as u64) {
                Ok((got, miss)) => {
                    counters.extend(miss);
                    if !results[i].as_ref().is_ok_and(|want| got.same(want)) {
                        report.fail(format!("traced request {i} differs from the served result"));
                    }
                }
                Err(e) => report.fail(format!("traced request {i}: {e}")),
            }
        }
        report.traced_ops = ops.len();
        finish_trace(ctx, &mut report, &tracer);
        insert_search_counters(&mut report, &counters);
    }
    Ok(report)
}

fn copy(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to)
        .map(|_| ())
        .map_err(|e| format!("copying {} to {}: {e}", from.display(), to.display()))
}

// --- supervise_chaos ------------------------------------------------------

const SUPERVISED: [&str; 3] = ["resnet50", "vgg16", "bert_base"];
/// Health events per second offered to the supervisors.
const EVENT_RATE: f64 = 200.0;
/// Events of one incident: each supervisor starts healthy and sees one
/// seeded timeline of this length. Many short incidents, rather than one
/// long timeline per model, keep the mix of ladder rungs from drifting
/// with the seed.
const INCIDENT_EVENTS: usize = 20;
/// Events per incident that arrive in a burst and debounce.
const INCIDENT_BURSTS: usize = 3;

/// Open loop: seeded incident timelines, each into a fresh supervisor,
/// the three models interleaved round-robin and offered at a fixed rate.
pub fn supervise_chaos(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let array = sut::hetero(8, 8);
    let models = SUPERVISED.len();
    let round = models * INCIDENT_EVENTS;
    let total = ((EVENT_RATE * ctx.seconds) as usize)
        .max(MIN_SAMPLES)
        .div_ceil(round)
        * round;
    let incidents = total / INCIDENT_EVENTS;
    // Supervisor `s` watches model `s % models`.
    let start_all = || -> Result<(Vec<Network>, Vec<sut::Supervisor>), String> {
        let nets = networks(&SUPERVISED, BATCH)?;
        let sups = (0..incidents)
            .map(|s| sut::supervisor(&nets[s % models], &array))
            .collect::<Result<_, _>>()?;
        Ok((nets, sups))
    };
    let (setup_s, (nets, mut sups)) = timed_setup(start_all)?;
    report.setup_s = setup_s;

    let mut rng = Rng::new(ctx.seed, STREAM_SUPERVISE);
    let timelines: Vec<Vec<sut::HealthEvent>> = sups
        .iter()
        .map(|sup| {
            let seed = rng.next_u64();
            sut::health_events(seed, sup, &incident_gaps(&mut rng))
        })
        .collect::<Result<_, _>>()?;
    // Slot `i` goes to model `i % models`; each model works through its
    // incidents one after another.
    let event = |i: usize| {
        let (model, nth) = (i % models, i / models);
        let s = nth / INCIDENT_EVENTS * models + model;
        (s, timelines[s][nth % INCIDENT_EVENTS])
    };
    let interval = Duration::from_secs_f64(1.0 / EVENT_RATE);

    let mut errors = Vec::new();
    let arrivals = stats::open_loop(total, interval, |i| {
        let (s, ev) = event(i);
        if let Err(e) = sut::observe(&mut sups[s], ev) {
            errors.push(format!("event {i}: {e}"));
        }
    });
    report.peak_rss_mb = stats::peak_rss_mb();
    for e in errors {
        report.fail(e);
    }
    for (i, a) in arrivals.iter().enumerate() {
        report.record(a.latency_ms, a.service_ms / 1e3);
        if (i + 1).is_multiple_of(round) {
            report.end_block();
        }
    }
    let mut late: Vec<f64> = arrivals.iter().map(|a| a.late_ms).collect();
    late.sort_by(f64::total_cmp);
    report
        .layers
        .insert("harness.late_p99_ms", stats::percentile(&late, 99.0));

    // After settling, each plan is bit-identical to one direct replan
    // against the terminal fault set, and no decision served a plan
    // slower than the healthy plan on the same hardware.
    let mut all = Vec::new();
    let mut speedups = Vec::new();
    for (s, sup) in sups.iter_mut().enumerate() {
        let model = SUPERVISED[s % models];
        if let Err(e) = sut::settle(sup) {
            report.fail(format!("settling incident {s} of {model}: {e}"));
            all.push(sut::decisions(sup));
            continue;
        }
        match sut::settled_matches_direct(sup, &nets[s % models], &array, &timelines[s]) {
            Ok(true) => {}
            Ok(false) => report.fail(format!(
                "incident {s} of {model} settled off the direct replan"
            )),
            Err(e) => report.fail(e),
        }
        let decisions = sut::decisions(sup);
        for d in &decisions {
            if let (Some(serving), Some(stale)) = (d.serving_secs, d.stale_secs) {
                // Keeping the incumbent on a recovery-only batch is
                // allowed while the fresh plan is within the promote
                // margin of it; everywhere else serving never exceeds
                // the stale plan.
                let allowed = if d.action == "keep" {
                    stale / (1.0 - sut::promote_margin())
                } else {
                    stale
                };
                if serving > allowed {
                    report.fail(format!(
                        "incident {s} of {model} served a plan slower than the stale one at t={} ({}: {serving} > {stale})",
                        d.at, d.action
                    ));
                }
            }
        }
        if s < models {
            speedups.push(sut::dp_secs(&nets[s], &array)? / sut::nominal_secs(sup));
        }
        all.push(decisions);
    }
    report.speedup_vs_dp = geomean(&speedups);
    insert_decision_metrics(&mut report, &all);

    if ctx.trace {
        let (_, mut traced) = start_all()?;
        let mut tracer = Tracer::new();
        let mut errors = Vec::new();
        stats::open_loop(total, interval, |i| {
            let (s, ev) = event(i);
            let root = tracer.begin("event", i as u64);
            if let Err(e) = sut::observe_traced(&mut traced[s], ev, &mut tracer, i as u64) {
                errors.push(format!("traced event {i}: {e}"));
            }
            tracer.end(root);
        });
        for e in errors {
            report.fail(e);
        }
        report.traced_ops = total;
        // Settling is not an op of the window: its spans go to the span
        // file only, after the layer shares and the overhead are taken.
        trace_metrics(&mut report, &tracer);
        for (s, sup) in traced.iter_mut().enumerate() {
            if let Err(e) = sut::settle_traced(sup, &mut tracer, (total + s) as u64) {
                report.fail(e);
            }
            if all.get(s) != Some(&sut::decisions(sup)) {
                report.fail(format!("traced decisions of incident {s} differ"));
            }
        }
        write_trace(ctx, &mut report, &tracer);
    }
    Ok(report)
}

/// Schedule-time gaps between the events of one incident: exactly
/// [`INCIDENT_BURSTS`] short enough to debounce (1-10 ms), the rest quiet
/// (0.2-2 s), in shuffled order. A fixed burst count keeps the share of
/// events that only buffer, and with it the latency median, from
/// drifting with the seed.
fn incident_gaps(rng: &mut Rng) -> Vec<f64> {
    rng.permutation(INCIDENT_EVENTS)
        .into_iter()
        .map(|i| {
            let u = rng.unit();
            if i < INCIDENT_BURSTS {
                1e-3 + 9e-3 * u
            } else {
                0.2 + 1.8 * u
            }
        })
        .collect()
}

/// Decision-ladder metrics over every supervisor's decision log.
fn insert_decision_metrics(report: &mut Report, all: &[Vec<sut::DecisionSummary>]) {
    let decisions: Vec<&sut::DecisionSummary> = all.iter().flatten().collect();
    let n = decisions.len().max(1) as f64;
    let events: usize = decisions.iter().map(|d| d.events).sum();
    let holds = decisions.iter().filter(|d| d.action == "hold").count();
    report
        .layers
        .insert("supervise.hold_ratio", holds as f64 / n);
    report
        .layers
        .insert("supervise.events_per_decision", events as f64 / n);
    report.layers.insert(
        "supervise.replans",
        decisions.iter().filter(|d| d.replanned).count() as f64,
    );
    // Each decision's degradation holds until the next decision.
    let (mut weighted, mut span) = (0.0, 0.0);
    for log in all {
        for pair in log.windows(2) {
            let dt = pair[1].at - pair[0].at;
            weighted += pair[0].degradation * dt;
            span += dt;
        }
    }
    report
        .layers
        .insert("supervise.degradation_mean", weighted / span);
}

// --- sim_step ---------------------------------------------------------------

/// Ops of one pass: every zoo network x (AccPar, DP) x (healthy,
/// faulted) x (BSP, DES).
const SIM_VARIANTS: usize = 8;

/// Closed loop over both simulators on plans made during set-up.
pub fn sim_step(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let array = sut::hetero(128, 128);
    let (leaves, cuts) = sut::leaves_and_cuts(&array)?;
    let mut rng = Rng::new(ctx.seed, STREAM_SIM);
    let mut pick = |n: usize, lo: f64, hi: f64| (rng.below(n), lo + (hi - lo) * rng.unit());
    let slow = [
        pick(leaves, 0.3, 0.9),
        pick(leaves, 0.3, 0.9),
        pick(leaves, 0.3, 0.9),
    ];
    let degraded = [pick(cuts, 0.2, 0.9), pick(cuts, 0.2, 0.9)];
    let faults = sut::fault_set(&slow, &degraded, pick(leaves, 1e-4, 1e-3))?;

    let (setup_s, (fixtures, mut arena)) = timed_setup(|| {
        let fixtures = networks(&ZOO, BATCH)?
            .iter()
            .map(|net| sut::sim_fixture(net, &array))
            .collect::<Result<Vec<_>, _>>()?;
        let mut arena = sut::DesArena::new();
        for op in 0..ZOO.len() * SIM_VARIANTS {
            run_sim(&fixtures, &mut arena, &faults, op)?;
        }
        Ok((fixtures, arena))
    })?;
    report.setup_s = setup_s;

    let mut ops = Vec::new();
    let mut results: Vec<Option<f64>> = Vec::new();
    let mut orders = passes(ctx.seed, STREAM_SIM, ZOO.len() * SIM_VARIANTS);
    let window = Window::open(ctx.seconds);
    while !window.done(ops.len()) {
        for op in orders.next().expect("passes never end") {
            let start = Instant::now();
            let result = run_sim(&fixtures, &mut arena, &faults, op);
            report.record_op(start.elapsed());
            ops.push(op);
            match result {
                Ok((secs, _)) => results.push(Some(secs)),
                Err(e) => {
                    results.push(None);
                    report.fail(format!("sim op {op}: {e}"));
                }
            }
        }
        report.end_block();
    }
    window.close(&mut report);

    // Every repeat reproduces its first result's bits.
    let mut first: BTreeMap<usize, f64> = BTreeMap::new();
    for (&op, result) in ops.iter().zip(&results) {
        let Some(secs) = *result else { continue };
        if first.entry(op).or_insert(secs).to_bits() != secs.to_bits() {
            report.fail(format!("sim op {op} is not reproducible"));
        }
    }
    // Healthy BSP: DP step over AccPar step, per network.
    let speedups: Vec<f64> = (0..ZOO.len())
        .filter_map(|m| {
            Some(first.get(&sim_op(m, 1, false, false))? / first.get(&sim_op(m, 0, false, false))?)
        })
        .collect();
    report.speedup_vs_dp = geomean(&speedups);

    if ctx.trace {
        let mut tracer = Tracer::new();
        let mut tasks = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let root = tracer.begin("sim", i as u64);
            let name = if op % 2 == 1 { "sim.des" } else { "sim.bsp" };
            let result = tracer.span(name, i as u64, || {
                run_sim(&fixtures, &mut arena, &faults, op)
            });
            tracer.end(root);
            match result {
                Ok((secs, n)) => {
                    tasks.extend(n);
                    if results[i].map(f64::to_bits) != Some(secs.to_bits()) {
                        report.fail(format!(
                            "traced sim op {i} differs from the untraced result"
                        ));
                    }
                }
                Err(e) => report.fail(format!("traced sim op {i}: {e}")),
            }
        }
        report.traced_ops = ops.len();
        finish_trace(ctx, &mut report, &tracer);
        let des_tasks = mean(tasks.iter().map(|&n| n as f64));
        report.layers.insert("sim.des_tasks", des_tasks);
        report.layers.insert(
            "sim.des_ns_per_task",
            report.layers["sim.des_us"] * 1e3 / des_tasks,
        );
    }
    Ok(report)
}

/// Op id of (network, plan 0 = AccPar / 1 = DP, faulted, DES).
fn sim_op(model: usize, plan: usize, faulted: bool, des: bool) -> usize {
    model * SIM_VARIANTS + plan * 4 + usize::from(faulted) * 2 + usize::from(des)
}

/// Runs one sim op; returns the step time and, for DES, the task count.
fn run_sim(
    fixtures: &[sut::SimFixture],
    arena: &mut sut::DesArena,
    faults: &FaultModel,
    op: usize,
) -> Result<(f64, Option<usize>), String> {
    let fx = &fixtures[op / SIM_VARIANTS];
    let variant = op % SIM_VARIANTS;
    let plan = variant / 4;
    let faults = (variant / 2 % 2 == 1).then_some(faults);
    if variant % 2 == 1 {
        sut::des(arena, fx, plan, faults).map(|(secs, tasks)| (secs, Some(tasks)))
    } else {
        sut::bsp(fx, plan, faults).map(|secs| (secs, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pass_visits_every_key_exactly_once() {
        for pass in passes(3, STREAM_CNN, 27).take(20) {
            let mut seen = pass.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..27).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_op_sequence() {
        let orders = |seed| passes(seed, STREAM_STACKS, 18).take(10).collect::<Vec<_>>();
        assert_eq!(orders(5), orders(5));
        assert_ne!(orders(5), orders(6));
        let stream = |seed| {
            let mut s = RequestStream::new(seed, 24, 3);
            (0..2000)
                .map(|_| s.next(|k| k % 3 == 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        assert!(stream(5).iter().any(|op| op.fault.is_some()));
        assert!(stream(5)
            .iter()
            .all(|op| op.fault.is_none() || op.key % 3 == 2));
    }

    #[test]
    fn the_serving_ranking_ranks_every_key_once_taking_arrays_in_turn() {
        let ranking = RequestStream::new(1, 24, 3).ranking;
        assert_eq!(ranking, RequestStream::new(2, 24, 3).ranking);
        assert!(ranking.iter().enumerate().all(|(r, k)| k % 3 == r % 3));
        let mut keys = ranking;
        keys.sort_unstable();
        assert_eq!(keys, (0..72).collect::<Vec<_>>());
    }

    #[test]
    fn sim_ops_enumerate_every_variant_once() {
        let mut ids: Vec<usize> = (0..ZOO.len())
            .flat_map(|m| {
                (0..2).flat_map(move |p| {
                    [false, true]
                        .into_iter()
                        .flat_map(move |f| [false, true].map(|d| sim_op(m, p, f, d)))
                })
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..ZOO.len() * SIM_VARIANTS).collect::<Vec<_>>());
    }
}
