//! Benchmark-side helpers that never call the program: the seeded
//! generators that make the inputs, percentiles, the open-loop generator,
//! and readers for process counters in `/proc`.

use std::path::Path;
use std::time::{Duration, Instant};

/// Percentiles the tail rule may report, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples a reported tail percentile must have beyond it.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p / 100 * n` (e.g. 99.9% of
    // 10 000) from rounding an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest candidate percentile that has at least ten of `n`
/// samples strictly beyond it, so a tail is never read off a handful of
/// outliers.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n >= TAIL_BEYOND && n - rank(n, p) >= TAIL_BEYOND)
}

/// Median of an unsorted sample (sorts it in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// A seeded splitmix64 stream. Each workload draws from its own stream
/// so adding a draw to one workload cannot shift another's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0..n` in a uniformly shuffled order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// A Zipf(`s`) sampler over ranks `0..n` (rank 0 is the most likely).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The rank at quantile `u` in `[0, 1)`.
    fn rank_at(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `n` ranks drawn by stratified sampling, in shuffled order: one
    /// quantile from each of `n` equal strata. Every block of `n` draws
    /// then matches the Zipf frequencies closely, so the hit ratio of a
    /// cache fed from it does not swing with sampling luck.
    pub fn block(&self, rng: &mut Rng, n: usize) -> Vec<usize> {
        let ranks: Vec<usize> = (0..n)
            .map(|k| self.rank_at((k as f64 + rng.unit()) / n as f64))
            .collect();
        rng.permutation(n).into_iter().map(|i| ranks[i]).collect()
    }
}

/// Timing of one open-loop arrival, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// From when the op was due to when the generator sent it.
    pub late_ms: f64,
    /// From when the op was due to when it completed.
    pub latency_ms: f64,
    /// From sending to completion.
    pub service_ms: f64,
}

/// Sends `n` ops on a fixed schedule, one every `interval`, whether or
/// not the previous op has finished, and times each from its due time:
/// a stall shows up in every op queued behind it.
pub fn open_loop(n: usize, interval: Duration, mut op: impl FnMut(usize)) -> Vec<Arrival> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let start = Instant::now();
    (0..n)
        .map(|i| {
            let due = start + interval * i as u32;
            wait_until(due);
            let sent = Instant::now();
            op(i);
            let done = Instant::now();
            Arrival {
                late_ms: ms(sent - due),
                latency_ms: ms(done - due),
                service_ms: ms(done - sent),
            }
        })
        .collect()
}

/// Spins until `due`. A sleep would hand the core back between ops, and
/// on a shared host the op after each wake-up then runs on a cold or
/// contended core, which made latencies swing from run to run.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Fixes glibc malloc's trim and mmap thresholds. By default glibc raises
/// both as larger blocks are freed, so the heap's behaviour depends on
/// the order of the first requests: under one seed's pass order every
/// large plan returned memory to the kernel and faulted it back, 15-20%
/// slower on the heaviest keys than under another order. Fixed
/// thresholds give every seed the same allocator. Call it first thing,
/// before a second thread exists.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters, and glibc
    // accepts both values (the mmap threshold is at its 32 MiB maximum).
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_malloc_thresholds() {}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let mut fields = rest.split(' ').skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// The type of the filesystem holding `path` (longest matching mount
/// point in `/proc/self/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split(' ');
            let (_, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory without running git.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.into()
        };
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .ok()
        .or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_owned)
            })
        })
        .map_or_else(|| format!("unknown ({reference})"), |c| c.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 999, 1000, 4321] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_BEYOND, "p{p} of {n}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = Zipf::new(72, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (0..50)
                .flat_map(|_| zipf.block(&mut rng, 100))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 72));
        let head = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == 71).count();
        assert!(
            head > 10 * tail.max(1),
            "rank 0 drawn {head}x, rank 71 {tail}x"
        );
    }

    #[test]
    fn permutations_visit_every_index_once() {
        let mut rng = Rng::new(1, 0);
        for n in [1, 2, 27, 96] {
            let mut order = rng.permutation(n);
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn open_loop_counts_latency_from_the_due_time() {
        let interval = Duration::from_millis(2);
        // The first op stalls for five intervals; the next ones are
        // instant but were due while it ran, so they carry the backlog.
        let arrivals = open_loop(4, interval, |i| {
            if i == 0 {
                std::thread::sleep(interval * 5);
            }
        });
        assert!(arrivals[0].service_ms >= 10.0);
        assert!(arrivals[1].latency_ms >= 8.0, "{:?}", arrivals[1]);
        assert!(arrivals[1].service_ms < arrivals[1].latency_ms);
        assert!(arrivals[1].late_ms >= 8.0);
        assert!(arrivals[3].latency_ms >= 4.0, "{:?}", arrivals[3]);
    }
}
