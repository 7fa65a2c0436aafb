//! Pieces every workload shares: the wall clock, order statistics,
//! process probes, the two-worker pool, the correctness tally and the
//! per-layer accumulator.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The one wall clock every measurement in the benchmark reads.
pub fn now() -> Instant {
    // srclint: allow(SD002): the benchmark times calls into the program on the wall clock by design
    Instant::now()
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, ms_since(start))
}

/// Runs `f`, turning a panic into `Err` so one broken operation counts as
/// failed instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

/// Sorted copy of `v`.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the middle pair on even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank 90th percentile, only where at least ten samples lie
/// beyond it (fewer make it a reading of the maximum).
pub fn p90(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let rank = (s.len() * 9).div_ceil(10);
    (rank >= 1 && s.len() - rank >= 10).then(|| s[rank - 1])
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` — what `getrusage(RUSAGE_SELF)` reports, at the
/// kernel's 100 Hz tick.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Resident set size now, in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Runs `op` over `0..n` on `workers` threads that pull indices from a
/// shared counter — the scheme of `failmpi_experiments::sweep::run_all`,
/// which returns no per-run times — and returns the results in index
/// order.
pub fn pool<T: Send>(n: usize, workers: usize, op: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, op(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("operations catch their own panics"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// One timed operation and what it produced.
#[derive(Clone, Debug)]
pub struct Op {
    /// Wall milliseconds of the operation.
    pub ms: f64,
    /// Stable name of the operation within its job (the pin key).
    pub key: String,
    /// The pinned part of the result, or why the operation failed
    /// outright (a panic, a failed trace validation).
    pub pinned: Result<String, String>,
    /// Every exact count the operation produced; repeats of the job must
    /// reproduce it.
    pub exact: String,
}

/// Parses a pin file: `key<TAB>value` lines, `#` comments.
pub fn parse_pins(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Renders ops as a pin file.
pub fn render_pins(header: &str, ops: &[Op]) -> String {
    let mut out = format!("# {header}\n");
    for op in ops {
        let value = op
            .pinned
            .as_deref()
            .unwrap_or_else(|e| panic!("cannot pin {}: {e}", op.key));
        out.push_str(&format!("{}\t{value}\n", op.key));
    }
    out
}

/// Counts attempted and failed operations: an operation fails when it
/// panicked or failed a check, when its pinned result differs from the
/// pin (where pins apply), or when a repeat of the job changed any of its
/// exact counts.
#[derive(Default)]
pub struct Tally {
    pins: Option<BTreeMap<String, String>>,
    first: BTreeMap<String, String>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
}

impl Tally {
    /// A tally that compares against `pins` when given.
    pub fn new(pins: Option<BTreeMap<String, String>>) -> Self {
        Tally {
            pins,
            ..Tally::default()
        }
    }

    /// Checks one operation.
    pub fn check(&mut self, op: &Op) {
        self.attempted += 1;
        let problem = match &op.pinned {
            Err(e) => Some(format!("{}: {e}", op.key)),
            Ok(got) => match self.pins.as_ref().map(|p| p.get(&op.key)) {
                Some(None) => Some(format!("{}: no pin", op.key)),
                Some(Some(want)) if want != got => {
                    Some(format!("{}: pinned `{want}`, got `{got}`", op.key))
                }
                _ => None,
            },
        };
        let problem = problem.or_else(|| match self.first.get(&op.key) {
            Some(prev) if *prev != op.exact => Some(format!(
                "{}: not deterministic: `{prev}` then `{}`",
                op.key, op.exact
            )),
            Some(_) => None,
            None => {
                self.first.insert(op.key.clone(), op.exact.clone());
                None
            }
        });
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failure that belongs to no single operation (a job-level
    /// summary that changed between repeats), counted as one failed
    /// operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// Per-layer sums, turned into means and rates when the run ends.
#[derive(Default, Debug)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
    maxes: BTreeMap<String, f64>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_default() += value;
        *self.counts.entry(name.to_string()).or_default() += 1;
    }

    /// Raises the running maximum of `name`.
    pub fn max(&mut self, name: &str, value: f64) {
        let m = self.maxes.entry(name.to_string()).or_insert(value);
        *m = m.max(value);
    }

    /// Sum of every sample of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of the samples of `name`; 0 when there are none.
    pub fn mean(&self, name: &str) -> f64 {
        ratio(
            self.sum(name),
            self.counts.get(name).copied().unwrap_or(0) as f64,
        )
    }

    /// The maximum recorded for `name`; 0 when there is none.
    pub fn maximum(&self, name: &str) -> f64 {
        self.maxes.get(name).copied().unwrap_or(0.0)
    }

    /// Names with samples whose name starts with `prefix`.
    pub fn names_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.sums
            .keys()
            .filter(move |k| k.starts_with(prefix))
            .map(String::as_str)
    }
}
