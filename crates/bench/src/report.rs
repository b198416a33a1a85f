//! Plain-text and JSON reporting for the figure/table binaries and the
//! `summary` tiers.
//!
//! The paper presents its results as line plots (throughput or active-time
//! rate vs. thread count, one line per algorithm variant) and bar charts
//! (large graphs at maximum parallelism).  The binaries in `src/bin/` print
//! the same data as aligned text tables — one row per thread count, one
//! column per variant — which is the form the series can be compared in
//! without a plotting stack, and optionally dump machine-readable JSON for
//! external plotting.
//!
//! Every `BENCH_*.json` artifact is a [`Json`] value wrapped by
//! [`document`] in the shared envelope (`schema`, `git_rev`); the offline
//! build has no serde.

use std::collections::BTreeMap;

/// One measured series: variant name -> value per x-axis point.
#[derive(Debug, Default)]
pub struct FigureData {
    /// Figure title (e.g. "Figure 5 — random scenario, 80% reads").
    pub title: String,
    /// The x axis (thread counts), shared by all series.
    pub x_axis: Vec<usize>,
    /// Per-graph data: graph name -> (variant name -> series of values).
    pub graphs: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl FigureData {
    /// Creates an empty figure with the given title and x axis.
    pub fn new(title: impl Into<String>, x_axis: Vec<usize>) -> Self {
        FigureData {
            title: title.into(),
            x_axis,
            graphs: BTreeMap::new(),
        }
    }

    /// Records one measured value.
    pub fn record(&mut self, graph: &str, variant: &str, value: f64) {
        self.graphs
            .entry(graph.to_string())
            .or_default()
            .entry(variant.to_string())
            .or_default()
            .push(value);
    }

    /// Renders the figure as aligned text tables (one per graph).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for (graph, series) in &self.graphs {
            out.push_str(&format!("\n-- Graph: {graph} --\n"));
            // Header.
            out.push_str(&format!("{:<44}", "variant \\ threads"));
            for x in &self.x_axis {
                out.push_str(&format!("{x:>12}"));
            }
            out.push('\n');
            for (variant, values) in series {
                out.push_str(&format!("{variant:<44}"));
                for v in values {
                    out.push_str(&format!("{v:>12.1}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serializes the figure to pretty JSON.
    pub fn to_json(&self) -> String {
        let series = |series: &BTreeMap<String, Vec<f64>>| {
            Json::obj(series.iter().map(|(variant, values)| {
                (
                    variant.as_str(),
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                )
            }))
        };
        Json::obj([
            ("title", Json::str(&self.title)),
            (
                "x_axis",
                Json::Arr(self.x_axis.iter().map(|&x| Json::int(x)).collect()),
            ),
            (
                "graphs",
                Json::obj(self.graphs.iter().map(|(g, s)| (g.as_str(), series(s)))),
            ),
        ])
        .render()
    }

    /// Writes the JSON dump next to the current directory under
    /// `target/figures/<name>.json` and returns the path.
    pub fn write_json(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("target").join("figures");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (finite; NaN/inf degrade to 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{}", v)
        }
    } else {
        "0".to_string()
    }
}

/// A JSON value, built by the tiers and rendered by [`Json::render`].
#[derive(Clone, Debug)]
pub enum Json {
    /// A float (non-finite values render as `0`).
    Num(f64),
    /// An integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An integer from any unsigned count.
    pub fn int(v: impl TryInto<u64>) -> Json {
        Json::Int(v.try_into().unwrap_or(u64::MAX))
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Pretty JSON: containers of scalars stay on one line (one cell per
    /// line), everything else nests with two-space indentation.
    pub fn render(&self) -> String {
        self.render_at(0)
    }

    fn render_at(&self, depth: usize) -> String {
        let (open, close, parts, flat) = match self {
            Json::Num(v) => return json_number(*v),
            Json::Int(v) => return v.to_string(),
            Json::Bool(v) => return v.to_string(),
            Json::Str(s) => return json_string(s),
            Json::Arr(items) => (
                '[',
                ']',
                items.iter().map(|v| v.render_at(depth + 1)).collect(),
                items.iter().all(Json::is_scalar),
            ),
            Json::Obj(fields) => (
                '{',
                '}',
                fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", json_string(k), v.render_at(depth + 1)))
                    .collect::<Vec<_>>(),
                fields.iter().all(|(_, v)| v.is_scalar()),
            ),
        };
        if parts.is_empty() {
            format!("{open}{close}")
        } else if flat {
            format!("{open} {} {close}", parts.join(", "))
        } else {
            let indent = "  ".repeat(depth + 1);
            let items = parts.join(&format!(",\n{indent}"));
            format!("{open}\n{indent}{items}\n{}{close}", "  ".repeat(depth))
        }
    }
}

/// A `BENCH_*.json` artifact: the envelope (`schema`, `git_rev`) followed
/// by `fields`, rendered with a trailing newline.
pub fn document(schema: &str, fields: Vec<(&str, Json)>) -> String {
    let envelope = [
        ("schema", Json::str(schema)),
        ("git_rev", Json::Str(git_rev())),
    ];
    let mut doc = Json::obj(envelope.into_iter().chain(fields)).render();
    doc.push('\n');
    doc
}

/// `git rev-parse --short HEAD`, suffixed `-dirty` when the work tree has
/// uncommitted changes (`unknown` outside a git checkout). The root
/// `BENCH_*.json` artifacts do not count as changes, so one run that
/// regenerates several of them from a clean checkout records the clean
/// revision in each.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    match git(&[
        "status",
        "--porcelain",
        "--",
        ":/",
        ":(top,exclude)BENCH_*.json",
    ]) {
        Some(status) if !status.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_render() {
        let mut fig = FigureData::new("Figure X", vec![1, 2, 4]);
        fig.record("USA roads", "(1) coarse-grained", 10.0);
        fig.record("USA roads", "(1) coarse-grained", 18.0);
        fig.record("USA roads", "(1) coarse-grained", 30.0);
        fig.record("USA roads", "(9) our algorithm", 12.0);
        let text = fig.render_text();
        assert!(text.contains("Figure X"));
        assert!(text.contains("USA roads"));
        assert!(text.contains("(1) coarse-grained"));
        assert!(text.contains("30.0"));
        let json = fig.to_json();
        assert!(json.contains("\"x_axis\""));
        assert!(json.contains("our algorithm"));
    }

    #[test]
    fn json_renders_flat_cells_inline_and_nests_the_rest() {
        let doc = Json::obj([
            (
                "cell",
                Json::obj([("ops", Json::Num(2.5)), ("n", Json::int(3u32))]),
            ),
            ("list", Json::Arr(vec![Json::Bool(true), Json::str("a\"b")])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"cell\": { \"ops\": 2.5, \"n\": 3 },\n  \"list\": [ true, \"a\\\"b\" ],\n  \"empty\": []\n}"
        );
    }
}
