//! Small measurement helpers shared by every workload: percentiles,
//! medians, resident-set readings and outcome digests.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Nearest-rank percentile of `values` (`q` in 0..=1), sorting them in
/// place. Returns 0 for an empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (the mean of the two middle values for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up is repeated at least this many times...
const SETUP_MIN_REPS: usize = 10;
/// ...and until this many host seconds have gone into it, so that
/// `setup_s` is the median of enough samples to be steady: the first
/// set-ups of a process run on cold memory and take up to twice as long,
/// and one set-up may take only a millisecond.
const SETUP_MIN_S: f64 = 1.5;
/// Upper bound on set-up repetitions.
const SETUP_MAX_REPS: usize = 1_000;

/// Runs `setup` repeatedly, timing each call, and returns the last
/// result with every call's host seconds. The previous result is dropped
/// before the next call, so only one copy is ever resident.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(secs_since(t0));
    }
    (last.expect("set-up ran at least once"), times)
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Reads a `Vm*` line of `/proc/self/status`, in MiB (0 where the file
/// is unavailable, e.g. off Linux).
fn proc_status_mib(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Current resident set size, in MiB.
pub fn rss_mib() -> f64 {
    proc_status_mib("VmRSS:")
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_mib("VmHWM:")
}

/// Order-independent digest: hash each item on its own and
/// combine with a commutative sum, so the digest does not depend on the
/// iteration order of the collection it summarises.
#[derive(Debug, Default, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// Folds one item into the digest.
    pub fn add<T: Hash>(&mut self, item: T) {
        let mut h = DefaultHasher::new();
        item.hash(&mut h);
        self.0 = self.0.wrapping_add(h.finish());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_ignores_order() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(1u32);
        a.add(2u32);
        b.add(2u32);
        b.add(1u32);
        assert_eq!(a.value(), b.value());
    }
}
