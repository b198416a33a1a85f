//! Order statistics and process memory.

/// Sorted samples, read by quantile.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    pub fn from_f32(samples: &[f32]) -> Self {
        Sorted::new(samples.iter().map(|&x| x as f64).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q` quantile, interpolating between the closest ranks; 0 when
    /// there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let s = &self.0;
        if s.is_empty() {
            return 0.0;
        }
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile, or 0 when fewer than ten samples lie beyond it.
    pub fn p99(&self) -> f64 {
        if self.len() < 1000 {
            0.0
        } else {
            self.quantile(0.99)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Sorted::new(samples.to_vec()).median()
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Sorted::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.p99(), 0.0, "too few samples beyond the 99th percentile");
        assert_eq!(Sorted::new(Vec::new()).median(), 0.0);
    }
}
