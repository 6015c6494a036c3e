//! Shared experiment harness: scales, result tables, CSV output, and an
//! ASCII chart for quick visual inspection of curve shapes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How big to run an experiment, and how wide to run it.
///
/// `full()` is the publication scale, the only one whose tables are
/// written to `results/`; `quick()` is the scaled-down variant behind
/// `all`'s `--quick` flag (same sweeps, shorter horizons, fewer seeds —
/// shapes still hold).
///
/// `jobs` selects the replication parallelism of the runner: `0` (the
/// default) resolves to the machine's hardware parallelism, `1` forces
/// the serial path. Results are bit-identical for every value of `jobs`
/// (see [`crate::runner`] for the determinism contract), so this knob
/// only trades wall-clock time for cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Simulated seconds per configuration point.
    pub horizon_secs: u64,
    /// Number of independent replications (seeds) averaged per point.
    pub replications: u64,
    /// Worker threads for replications (`0` = hardware parallelism).
    pub jobs: usize,
}

impl Scale {
    /// Publication-scale runs.
    pub fn full() -> Scale {
        Scale {
            horizon_secs: 60,
            replications: 4,
            jobs: 0,
        }
    }

    /// Fast runs (`--quick`, the benchmark's `sim_paper`). Keeps two
    /// replications so the runner's merge path (not just the trivial
    /// single-replication case) is exercised everywhere.
    pub fn quick() -> Scale {
        Scale {
            horizon_secs: 8,
            replications: 2,
            jobs: 0,
        }
    }

    /// Reads program arguments: `--quick` anywhere selects
    /// [`Scale::quick`] and `--jobs N` sets the replication parallelism;
    /// every other argument comes back, in order, as a module name.
    ///
    /// # Errors
    ///
    /// A `--jobs` without a value, or with one that is not a `usize`.
    pub fn parse(args: &[String]) -> Result<(Scale, Vec<String>), String> {
        let (mut quick, mut jobs, mut names) = (false, 0, Vec::new());
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--jobs" => {
                    let value = rest.next().ok_or("`--jobs` needs a worker count")?;
                    jobs = value
                        .parse()
                        .map_err(|_| format!("`--jobs {value}`: not a worker count"))?;
                }
                _ => names.push(arg.clone()),
            }
        }
        let scale = if quick { Scale::quick() } else { Scale::full() };
        Ok((scale.with_jobs(jobs), names))
    }

    /// This scale with an explicit worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> Scale {
        self.jobs = jobs;
        self
    }

    /// The worker-thread count the runner will actually use: `jobs`
    /// resolved against hardware parallelism and clamped to the
    /// replication count (extra threads would idle).
    pub fn effective_jobs(&self) -> usize {
        crate::runner::workers(self.jobs, self.replications as usize)
    }

    /// Whether this is the publication scale (any `jobs`): the only scale
    /// whose tables `all` writes to `results/`.
    pub fn is_publication(&self) -> bool {
        let full = Scale::full();
        self.horizon_secs == full.horizon_secs && self.replications == full.replications
    }
}

/// A result table: one experiment's rows, printable and CSV-exportable.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (figure/table id plus description).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Side tables a module computed along with this one, each under the
    /// CSV stem it is published as (`results/<name>.csv`).
    pub attached: Vec<(String, Table)>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            attached: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>width$}  ", c, width = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table (not its attachments) as CSV under
    /// `results/<name>.csv`, in the nearest ancestor of the working
    /// directory that holds `results/`. Errors are reported, not fatal.
    pub fn write_csv(&self, name: &str) {
        let path = results_path(name);
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, csv) {
            Ok(()) => println!("[csv] wrote {}", path.display()),
            Err(e) => eprintln!("[csv] could not write {}: {e}", path.display()),
        }
    }
}

/// `results/<name>.csv` in the nearest ancestor holding `results/`, else
/// in `./results`.
fn results_path(name: &str) -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = cwd
        .ancestors()
        .find(|dir| dir.join("results").is_dir())
        .unwrap_or(Path::new("."));
    root.join("results").join(format!("{name}.csv"))
}

/// Renders series as a fixed-size ASCII chart (y down the left, one glyph
/// per series) for eyeballing curve shapes in terminal output.
pub fn ascii_chart(title: &str, xs: &[f64], series: &[(&str, Vec<f64>)], y_label: &str) -> String {
    const W: usize = 64;
    const H: usize = 16;
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, ys) in series {
        for &y in ys {
            if y.is_finite() {
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
    }
    if !ymin.is_finite() || ymax <= ymin {
        ymin = 0.0;
        ymax = 1.0;
    }
    let (xmin, xmax) = (xs[0], xs[xs.len() - 1]);
    let mut grid = vec![vec![' '; W]; H];
    for (si, (_, ys)) in series.iter().enumerate() {
        for (&x, &y) in xs.iter().zip(ys) {
            if !y.is_finite() {
                continue;
            }
            let cx = if xmax > xmin {
                ((x - xmin) / (xmax - xmin) * (W - 1) as f64).round() as usize
            } else {
                0
            };
            let cy = ((y - ymin) / (ymax - ymin) * (H - 1) as f64).round() as usize;
            grid[H - 1 - cy][cx.min(W - 1)] = glyphs[si % glyphs.len()];
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "-- {title} --");
    let _ = writeln!(out, "{y_label} (top={ymax:.3}, bottom={ymin:.3})");
    for row in grid {
        let _ = writeln!(out, "|{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "+{}", "-".repeat(W));
    let _ = writeln!(out, " x: {xmin:.3} .. {xmax:.3}");
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "   {} = {}", glyphs[si % glyphs.len()], name);
    }
    out
}

/// Formats a float with 4 significant decimals for table cells.
pub fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "load"]);
        t.push_row(vec!["1".into(), "0.60".into()]);
        t.push_row(vec!["22".into(), "1.00".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("load"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn chart_renders_series() {
        let xs = vec![0.0, 1.0, 2.0];
        let s = ascii_chart(
            "c",
            &xs,
            &[("up", vec![0.0, 0.5, 1.0]), ("down", vec![1.0, 0.5, 0.0])],
            "u",
        );
        assert!(s.contains("* = up"));
        assert!(s.contains("o = down"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_reads_quick_and_jobs_and_leaves_the_rest() {
        let parsed = |list: &[&str]| Scale::parse(&args(list));
        assert_eq!(parsed(&[]), Ok((Scale::full(), args(&[]))));
        assert_eq!(
            parsed(&["fig4", "--quick"]),
            Ok((Scale::quick(), args(&["fig4"])))
        );
        assert_eq!(
            parsed(&["--jobs", "3", "fig4", "--fast", "table1"]),
            Ok((
                Scale::full().with_jobs(3),
                args(&["fig4", "--fast", "table1"])
            ))
        );
        assert_eq!(
            parsed(&["--jobs", "2", "--quick"]),
            Ok((Scale::quick().with_jobs(2), args(&[])))
        );
    }

    #[test]
    fn parse_refuses_a_missing_or_malformed_job_count() {
        for bad in [
            &["--jobs"][..],
            &["--quick", "--jobs"],
            &["--jobs", "abc"],
            &["--jobs", "-1"],
            &["--jobs", "--quick"],
            &["--jobs", "2", "--jobs", "x"],
        ] {
            let err = Scale::parse(&args(bad)).expect_err("must refuse");
            assert!(err.contains("--jobs"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn scale_presets() {
        assert!(Scale::full().horizon_secs > Scale::quick().horizon_secs);
        assert!(Scale::full().replications >= Scale::quick().replications);
        assert!(
            Scale::quick().replications >= 2,
            "quick scale must exercise the merge path"
        );
        assert!(Scale::full().with_jobs(1).is_publication());
        assert!(!Scale::quick().is_publication());
    }

    #[test]
    fn effective_jobs_clamps_to_replications() {
        let s = Scale {
            horizon_secs: 1,
            replications: 2,
            jobs: 16,
        };
        assert_eq!(s.effective_jobs(), 2);
        assert_eq!(s.with_jobs(1).effective_jobs(), 1);
        // Auto (0) resolves to at least one worker.
        assert!(s.with_jobs(0).effective_jobs() >= 1);
        let zero_reps = Scale {
            horizon_secs: 1,
            replications: 0,
            jobs: 8,
        };
        assert_eq!(zero_reps.effective_jobs(), 1);
    }

    #[test]
    fn float_format() {
        assert_eq!(f(0.125), "0.1250");
    }
}
