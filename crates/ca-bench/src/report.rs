//! Output helpers and the shared flags of `ca-bench`: aligned text tables,
//! CSV, and JSON dumps under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A GFlop/s series table: one row per x-value, one column per algorithm.
#[derive(Clone, Debug, serde::Serialize)]
pub struct Series {
    /// Table caption (e.g. "Figure 5 ...").
    pub title: String,
    /// Name of the x column (e.g. "n").
    pub xlabel: String,
    /// x values.
    pub xs: Vec<usize>,
    /// `(column name, values)` pairs; each value list matches `xs`.
    pub columns: Vec<(String, Vec<f64>)>,
}

impl Series {
    /// Creates an empty series table.
    pub fn new(title: impl Into<String>, xlabel: impl Into<String>, xs: Vec<usize>) -> Self {
        Self { title: title.into(), xlabel: xlabel.into(), xs, columns: Vec::new() }
    }

    /// Appends a column.
    pub fn push_column(&mut self, name: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.xs.len(), "column length mismatch");
        self.columns.push((name.into(), values));
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let width = self
            .columns
            .iter()
            .map(|(n, _)| n.len() + 2)
            .max()
            .unwrap_or(12)
            .max(12);
        let _ = write!(out, "{:>8}", self.xlabel);
        for (name, _) in &self.columns {
            let _ = write!(out, "{name:>width$}");
        }
        let _ = writeln!(out);
        for (i, &x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x:>8}");
            for (_, vals) in &self.columns {
                let _ = write!(out, "{:>width$.2}", vals[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.xlabel);
        for (name, _) in &self.columns {
            let _ = write!(out, ",{name}");
        }
        let _ = writeln!(out);
        for (i, &x) in self.xs.iter().enumerate() {
            let _ = write!(out, "{x}");
            for (_, vals) in &self.columns {
                let _ = write!(out, ",{:.4}", vals[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes `<stem>.csv` and `<stem>.json` under `dir`, creating it.
    pub fn save(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        save(dir, &format!("{stem}.csv"), &self.to_csv())?;
        save(dir, &format!("{stem}.json"), &serde_json::to_string_pretty(self).expect("serializable"))
    }

    /// Ratio between two named columns at each x (e.g. speedup of CALU over
    /// MKL), for shape assertions and summaries.
    pub fn ratio(&self, over: &str, under: &str) -> Vec<f64> {
        let a = &self.columns.iter().find(|(n, _)| n == over).expect("column").1;
        let b = &self.columns.iter().find(|(n, _)| n == under).expect("column").1;
        a.iter().zip(b.iter()).map(|(x, y)| x / y).collect()
    }
}

/// Writes `text` to `dir/name`, creating `dir`, and says so on stdout.
pub fn save(dir: &Path, name: &str, text: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, text)?;
    println!("saved {}", path.display());
    Ok(())
}

/// The flags every `ca-bench` subcommand shares.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Row-count scale factor applied to the paper's `m`.
    pub scale: f64,
    /// Run real factorizations instead of the simulator.
    pub measured: bool,
    /// Simulated core count override.
    pub cores: Option<usize>,
    /// Threads for measured mode.
    pub threads: usize,
    /// Output directory.
    pub out: std::path::PathBuf,
    /// Quick mode: shrink sweeps for smoke-testing.
    pub quick: bool,
    /// Use the fixed reference calibration instead of measuring the host.
    pub reference_calibration: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            scale: 1.0,
            measured: false,
            cores: None,
            threads: 4,
            out: std::path::PathBuf::from("results"),
            quick: false,
            reference_calibration: false,
        }
    }
}

/// The value of `flag`: present, readable as a `T`, and accepted by `ok`.
fn value<T: std::str::FromStr>(
    flag: &str,
    v: Option<String>,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().ok().filter(ok).ok_or_else(|| format!("{flag}: bad value `{v}`"))
}

impl Cli {
    /// The usage line printed with every command-line error.
    pub const USAGE: &'static str = "usage: ca-bench (repro [ID…] | chaos-sweep) [--scale F] \
        [--measured] [--quick] [--reference-calibration] [--cores N] [--threads N] [--out DIR]";

    /// Splits `std::env::args`-style arguments into positional words and
    /// flags. A flag that is unknown, lacks its value or has one out of
    /// range is an `Err` naming it.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<(Vec<String>, Self), String> {
        let mut cli = Cli::default();
        let mut words = Vec::new();
        let mut it = args;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => cli.scale = value(&a, it.next(), |s: &f64| s.is_finite() && *s > 0.0)?,
                "--measured" => cli.measured = true,
                "--quick" => cli.quick = true,
                "--reference-calibration" => cli.reference_calibration = true,
                "--cores" => cli.cores = Some(value(&a, it.next(), |&n: &usize| n > 0)?),
                "--threads" => cli.threads = value(&a, it.next(), |&n: &usize| n > 0)?,
                "--out" => cli.out = value::<String>(&a, it.next(), |_| true)?.into(),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => words.push(a),
            }
        }
        Ok((words, cli))
    }

    /// The calibration to use: measured on this host unless
    /// `--reference-calibration` requests the fixed one.
    pub fn calibration(&self) -> crate::calibrate::Calibration {
        if self.reference_calibration {
            crate::calibrate::Calibration::reference()
        } else {
            crate::calibrate::calibrate(self.quick)
        }
    }

    /// `x · --scale` rows, at least `floor`.
    pub fn scaled(&self, x: f64, floor: usize) -> usize {
        ((x * self.scale) as usize).max(floor)
    }

    /// `"measured"` or `"simulated P-core"`, for captions.
    pub fn mode(&self, cores: usize) -> String {
        if self.measured { "measured".into() } else { format!("simulated {cores}-core") }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_render_and_ratio() {
        let mut s = Series::new("t", "n", vec![10, 20]);
        s.push_column("a", vec![2.0, 4.0]);
        s.push_column("b", vec![1.0, 2.0]);
        let txt = s.to_text();
        assert!(txt.contains("a"));
        assert!(txt.contains("2.00"));
        let csv = s.to_csv();
        assert!(csv.starts_with("n,a,b"));
        assert_eq!(s.ratio("a", "b"), vec![2.0, 2.0]);
    }

    #[test]
    fn cli_parses_flags_and_names_the_bad_one() {
        let parse = |args: &[&str]| Cli::parse(args.iter().map(|s| s.to_string()));
        let (words, cli) =
            parse(&["repro", "--scale", "0.5", "fig5", "--measured", "--cores", "16", "--out", "/tmp/x"]).unwrap();
        assert_eq!(words, ["repro", "fig5"]);
        assert_eq!(cli.scale, 0.5);
        assert!(cli.measured);
        assert_eq!(cli.cores, Some(16));
        assert_eq!(cli.out, std::path::PathBuf::from("/tmp/x"));
        for bad in [&["--scale", "x"][..], &["--scale", "-1"], &["--cores", "0"], &["--threads"], &["--out"], &["--full"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(bad[0]), "{bad:?}: {err}");
        }
    }

    #[test]
    fn series_save_writes_files() {
        let mut s = Series::new("t", "n", vec![1]);
        s.push_column("a", vec![1.5]);
        let dir = std::env::temp_dir().join("ca_bench_report_test");
        s.save(&dir, "unit").unwrap();
        assert!(dir.join("unit.csv").exists());
        assert!(dir.join("unit.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
