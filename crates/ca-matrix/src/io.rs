//! Matrix Market I/O (dense `array` and sparse `coordinate` formats,
//! real/integer, general/symmetric) — enough to exchange matrices with the
//! usual test collections and with the `cafactor` CLI.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or syntactic problem, with a description.
    Parse(String),
}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

impl core::fmt::Display for MmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(s) => write!(f, "Matrix Market parse error: {s}"),
        }
    }
}

impl std::error::Error for MmError {}

fn parse_err(s: impl Into<String>) -> MmError {
    MmError::Parse(s.into())
}

/// Reads a Matrix Market stream into a dense [`Matrix`], generic over the
/// element type (`read_matrix_market::<f32>` for the single-precision tier).
///
/// Supports `array` (dense, column-major) and `coordinate` (sparse triples,
/// materialized densely) formats with `real` or `integer` fields, `general`
/// or `symmetric` symmetry. Values are parsed in `f64` and rounded once via
/// [`Scalar::from_f64`]; because `f64` carries more than twice an `f32`'s
/// precision, that double rounding is exact for any decimal string an `f32`
/// writer emits, so `f32` files roundtrip bitwise.
pub fn read_matrix_market<T: Scalar>(reader: impl Read) -> Result<Matrix<T>, MmError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().ok_or_else(|| parse_err("empty stream"))??;
    let h: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if h.len() < 4 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(parse_err(format!("bad header: {header}")));
    }
    let format = h[2].as_str();
    let field = h[3].as_str();
    let symmetry = h.get(4).map(|s| s.as_str()).unwrap_or("general").to_string();
    if !matches!(field, "real" | "integer" | "double") {
        return Err(parse_err(format!("unsupported field type {field}")));
    }
    if !matches!(symmetry.as_str(), "general" | "symmetric") {
        return Err(parse_err(format!("unsupported symmetry {symmetry}")));
    }

    // Skip comments; first data line is the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| parse_err(format!("bad size entry {t}"))))
        .collect::<Result<_, _>>()?;

    let mut numbers = Vec::new();
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        for tok in t.split_whitespace() {
            numbers.push(tok.to_string());
        }
    }

    match format {
        "array" => {
            let [m, n] = dims[..] else {
                return Err(parse_err("array size line must be 'm n'"));
            };
            let expect = if symmetry == "symmetric" { n * (n + 1) / 2 } else { m * n };
            if numbers.len() != expect {
                return Err(parse_err(format!("expected {expect} entries, got {}", numbers.len())));
            }
            let vals: Vec<T> = numbers
                .iter()
                .map(|t| {
                    t.parse::<f64>()
                        .map(T::from_f64)
                        .map_err(|_| parse_err(format!("bad value {t}")))
                })
                .collect::<Result<_, _>>()?;
            if symmetry == "symmetric" {
                if m != n {
                    return Err(parse_err("symmetric array must be square"));
                }
                let mut a = Matrix::<T>::zeros(n, n);
                let mut it = vals.into_iter();
                for j in 0..n {
                    for i in j..n {
                        let v = it.next().expect("counted");
                        a[(i, j)] = v;
                        a[(j, i)] = v;
                    }
                }
                Ok(a)
            } else {
                Ok(Matrix::from_vec(vals, m, n))
            }
        }
        "coordinate" => {
            let [m, n, nnz] = dims[..] else {
                return Err(parse_err("coordinate size line must be 'm n nnz'"));
            };
            if numbers.len() != nnz * 3 {
                return Err(parse_err(format!(
                    "expected {} tokens for {nnz} triples, got {}",
                    nnz * 3,
                    numbers.len()
                )));
            }
            let mut a = Matrix::<T>::zeros(m, n);
            for t in numbers.chunks(3) {
                let i: usize =
                    t[0].parse().map_err(|_| parse_err(format!("bad row index {}", t[0])))?;
                let j: usize =
                    t[1].parse().map_err(|_| parse_err(format!("bad col index {}", t[1])))?;
                let v: f64 = t[2].parse().map_err(|_| parse_err(format!("bad value {}", t[2])))?;
                if i == 0 || j == 0 || i > m || j > n {
                    return Err(parse_err(format!("index ({i},{j}) out of bounds {m}x{n}")));
                }
                a[(i - 1, j - 1)] = T::from_f64(v);
                if symmetry == "symmetric" && i != j {
                    a[(j - 1, i - 1)] = T::from_f64(v);
                }
            }
            Ok(a)
        }
        other => Err(parse_err(format!("unsupported format {other}"))),
    }
}

/// Writes a dense matrix in Matrix Market `array real general` format.
///
/// Values are emitted with `{:e}` — Rust's shortest-roundtrip scientific
/// notation, the minimal digit string that parses back to the exact same
/// bit pattern for the matrix's own element type (9 significant digits at
/// most for `f32`, 17 for `f64`). File roundtrips are therefore
/// bitwise-stable in both precisions, which the out-of-core store's debug
/// export relies on.
pub fn write_matrix_market<T: Scalar>(mut w: impl Write, a: &Matrix<T>) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix array real general")?;
    writeln!(w, "% written by ca-factor ({})", T::NAME)?;
    writeln!(w, "{} {}", a.nrows(), a.ncols())?;
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            writeln!(w, "{:e}", a[(i, j)])?;
        }
    }
    Ok(())
}

/// Reads a Matrix Market file.
pub fn read_matrix_market_file<T: Scalar>(path: impl AsRef<Path>) -> Result<Matrix<T>, MmError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Writes a Matrix Market file.
pub fn write_matrix_market_file<T: Scalar>(
    path: impl AsRef<Path>,
    a: &Matrix<T>,
) -> std::io::Result<()> {
    write_matrix_market(BufWriter::new(std::fs::File::create(path)?), a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_uniform, seeded_rng};

    #[test]
    fn array_round_trip_preserves_bits() {
        let a = random_uniform(7, 5, &mut seeded_rng(1));
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b: Matrix = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn f32_round_trip_preserves_bits() {
        let mut a = Matrix::<f32>::from_f64(&random_uniform(9, 4, &mut seeded_rng(3)));
        // Exercise values whose shortest f32 form needs many digits, plus
        // signed zero and extremes of the normal range.
        a[(0, 0)] = f32::MIN_POSITIVE;
        a[(1, 0)] = f32::MAX;
        a[(2, 0)] = -0.0;
        a[(3, 0)] = 0.1;
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let b: Matrix<f32> = read_matrix_market(&buf[..]).unwrap();
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn f32_reads_f64_written_files_with_single_rounding() {
        // A full-precision f64 value read back as f32 must equal the direct
        // rounding of that value to f32.
        let v = 0.123_456_789_123_456_78_f64;
        let src = format!("%%MatrixMarket matrix array real general\n1 1\n{v:e}\n");
        let a: Matrix<f32> = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a[(0, 0)].to_bits(), (v as f32).to_bits());
    }

    #[test]
    fn parses_coordinate_general() {
        let src = "%%MatrixMarket matrix coordinate real general\n% test\n3 4 3\n1 1 2.5\n3 4 -1.0\n2 2 7\n";
        let a: Matrix = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 4);
        assert_eq!(a[(0, 0)], 2.5);
        assert_eq!(a[(2, 3)], -1.0);
        assert_eq!(a[(1, 1)], 7.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn parses_coordinate_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 4.0\n3 3 1.0\n";
        let a: Matrix = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a[(0, 1)], 4.0);
        assert_eq!(a[(2, 2)], 1.0);
    }

    #[test]
    fn parses_symmetric_array() {
        // 2x2 symmetric array: lower triangle column-major: a11 a21 a22.
        let src = "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n";
        let a: Matrix = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(1, 0)], 2.0);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(1, 1)], 3.0);
    }

    #[test]
    fn integer_field_accepted() {
        let src = "%%MatrixMarket matrix array integer general\n2 1\n4\n-2\n";
        let a: Matrix = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(a[(0, 0)], 4.0);
        assert_eq!(a[(1, 0)], -2.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_matrix_market::<f64>("hello\n".as_bytes()).is_err());
        assert!(read_matrix_market::<f64>(
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n".as_bytes()
        )
        .is_err()); // too few entries
        assert!(read_matrix_market::<f64>(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n".as_bytes()
        )
        .is_err()); // out-of-bounds index
        assert!(read_matrix_market::<f64>(
            "%%MatrixMarket matrix array complex general\n1 1\n1 0\n".as_bytes()
        )
        .is_err()); // unsupported field
    }

    #[test]
    fn file_round_trip() {
        let a = random_uniform(4, 4, &mut seeded_rng(2));
        let path = std::env::temp_dir().join("ca_matrix_io_test.mtx");
        write_matrix_market_file(&path, &a).unwrap();
        let b: Matrix = read_matrix_market_file(&path).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&path);
    }
}
