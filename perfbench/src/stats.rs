//! Small statistics helpers: percentiles with a sample-supported tail, an
//! order-sensitive outcome digest, and the process's peak resident set.

use sim_core::stats::percentile_sorted;

/// Candidate tail percentiles, lowest first. The reported tail is the
/// highest of these that still has at least [`TAIL_MIN_BEYOND`] samples
/// above it.
const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// A distribution summary: median, the highest sample-supported tail
/// percentile, and the sample count behind both.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Dist {
    pub p50: f64,
    /// The tail percentile as a fraction (`0.99` for p99); `0` when the
    /// sample is too small for any ladder rung.
    pub tail_q: f64,
    pub tail: f64,
    pub n: usize,
    pub mean: f64,
}

impl Dist {
    pub fn of(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let tail_q = TAIL_LADDER
            .iter()
            .rev()
            .copied()
            .find(|q| n as f64 * (1.0 - q) >= TAIL_MIN_BEYOND - 1e-9)
            .unwrap_or(0.0);
        Dist {
            p50: percentile_sorted(&values, 0.5),
            tail_q,
            tail: if tail_q > 0.0 {
                percentile_sorted(&values, tail_q)
            } else {
                values.last().copied().unwrap_or(0.0)
            },
            n,
            mean: if n == 0 {
                0.0
            } else {
                values.iter().sum::<f64>() / n as f64
            },
        }
    }

    /// `"p99"`, `"p99.9"`, ... for the tail rung (`"max"` below the ladder).
    pub fn tail_label(&self) -> String {
        if self.tail_q == 0.0 {
            "max".to_string()
        } else {
            format!("p{}", 100.0 * self.tail_q)
        }
    }
}

/// Median of a sample, the mean of the middle two for an even count (0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// FNV-1a over 64-bit words: a digest whose value is fixed by the words
/// alone, on every platform and toolchain.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Host seconds of a fixed reference job that shares no code with the
/// program: sorting and B-tree inserts over pseudo-random keys, a mix of
/// branches, allocation and cache misses like a simulator's. Timing it next
/// to each pass tracks how fast this host runs right now, including how
/// much cache and memory bandwidth its neighbours leave.
pub fn reference_job_s() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..1 << 19)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut map = std::collections::BTreeMap::new();
    for (i, &k) in keys.iter().take(1 << 17).enumerate() {
        map.insert(k % 100_003, i);
    }
    keys.sort_unstable();
    std::hint::black_box((keys, map));
    t.elapsed().as_secs_f64()
}

/// [`reference_job_s`] in a child process (this executable with
/// [`REFERENCE_JOB_FLAG`]), so its memory stays out of this process's
/// `peak_rss_mib`. Waits for the child to exit.
pub fn reference_job_in_child_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(REFERENCE_JOB_FLAG)
        .output()
        .map_err(|e| format!("running the reference job: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference job exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("reading the reference job's time: {e}"))
}

/// The sole argument that makes this executable run [`reference_job_s`]
/// and print its seconds.
pub const REFERENCE_JOB_FLAG: &str = "--reference-job";

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rung_keeps_ten_samples_beyond() {
        let d = Dist::of((1..=1000).map(f64::from).collect());
        assert_eq!(d.tail_q, 0.99);
        assert_eq!(d.tail, 990.0);
        assert_eq!(d.p50, 500.0);
        let small = Dist::of((1..=999).map(f64::from).collect());
        assert_eq!(small.tail_q, 0.90);
        assert_eq!(small.tail_label(), "p90");
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
