//! The traced run's span store and the per-layer metrics read from it.

use crate::client::{Class, Span};
use crate::stats::Sorted;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Spans of the traced chunks, in call order.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Durations in microseconds of the spans of one class.
    pub fn micros(&self, class: Class) -> Sorted {
        Sorted::new(
            self.spans
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.dur_ns as f64 / 1e3)
                .collect(),
        )
    }

    /// Writes one tab-separated line per span: layer, op, class, start and
    /// end in nanoseconds since the run's epoch.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer\top\tclass\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.class.layer(),
                s.class.op(),
                s.class.name(),
                s.start_ns,
                s.start_ns + s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// `part ÷ whole`, or 0 for an empty whole.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
