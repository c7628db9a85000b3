//! Reproduction harness utilities: aligned table printing, CSV export,
//! and a minimal `--key value` argument parser shared by the figure
//! binaries.
//!
//! Each binary in `src/bin/` regenerates one figure or in-text result of
//! the paper (see `DESIGN.md` §4 for the index) and prints a
//! paper-vs-measured comparison. CSV series are written to `results/`
//! for plotting.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple aligned text table for terminal reports.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Display>(header: &[S]) -> Self {
        Table {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Display>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match the header"
        );
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
        self
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = width[c].max(h.len());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$}  ", cell, w = width[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Resolves the `results/` directory at the workspace root, creating it
/// if needed.
///
/// The root comes from the `CARGO_MANIFEST_DIR` that `cargo run`,
/// `cargo bench` and `cargo test` set when they start a binary, so a
/// binary built in one checkout and run from a copy of it writes into
/// the copy. The path baked in at compile time is the fallback, for a
/// binary started without cargo.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/<crate>; the workspace root is two up.
    let root_of = |manifest_dir: &Path| manifest_dir.ancestors().nth(2).map(Path::to_path_buf);
    std::env::var_os("CARGO_MANIFEST_DIR")
        .and_then(|dir| root_of(Path::new(&dir)))
        .filter(|root| root.join("Cargo.toml").is_file())
        .or_else(|| root_of(Path::new(env!("CARGO_MANIFEST_DIR"))))
        .expect("workspace root")
}

/// Writes a CSV file into `results/` and returns its path.
///
/// # Panics
///
/// Panics on I/O failure (reproduction scripts should fail loudly).
pub fn write_csv<S: Display>(name: &str, header: &[S], rows: &[Vec<String>]) -> PathBuf {
    let path = results_dir().join(name);
    let mut body = header
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    fs::write(&path, body).expect("write csv");
    path
}

/// Minimal `--key value` CLI parser for the figure binaries.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics on a dangling `--key` without a value.
    #[must_use]
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics on a dangling `--key` without a value.
    #[allow(clippy::should_implement_trait)] // not a FromIterator: parses flags
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut pairs = Vec::new();
        let mut iter = iter.into_iter();
        while let Some(k) = iter.next() {
            if let Some(key) = k.strip_prefix("--") {
                let v = iter
                    .next()
                    .unwrap_or_else(|| panic!("missing value for --{key}"));
                pairs.push((key.to_string(), v));
            }
        }
        Args { pairs }
    }

    /// Looks up a parsed value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Typed lookup with default.
    ///
    /// # Panics
    ///
    /// Panics if the value fails to parse.
    #[must_use]
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.get(key) {
            Some(v) => v.parse().unwrap_or_else(|e| panic!("--{key}: {e:?}")),
            None => default,
        }
    }
}

/// Formats an accuracy as a percent string.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a", "1"]).row(&["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn args_parse_pairs() {
        let a = Args::from_iter(
            ["--episodes", "50", "--seed", "7"]
                .iter()
                .map(ToString::to_string),
        );
        assert_eq!(a.get_or("episodes", 0usize), 50);
        assert_eq!(a.get_or("seed", 0u64), 7);
        assert_eq!(a.get_or("missing", 42u64), 42);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9834), "98.34%");
    }
}
