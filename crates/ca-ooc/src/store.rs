//! [`TileStore`]: a matrix laid out as block-column panels in a single
//! file, with explicit byte accounting on every transfer.
//!
//! The layout is plain column-major with a fixed self-describing header, so
//! a *panel* (any contiguous column range) is a contiguous byte run and a
//! partial-height column read is one seek plus one sequential read per
//! column. Elements are stored as their IEEE-754 bit patterns in
//! little-endian order at the element's native width
//! ([`Scalar::BYTES`]), which makes store roundtrips bitwise-exact in both
//! precisions — the property the out-of-core drivers' bitwise-identity
//! contract rests on.
//!
//! Every read and write is counted in the store's own [`IoVolume`], the one
//! record of its I/O, so a driver reports the I/O of one factorization in
//! isolation.

use ca_core::FactorError;
use ca_matrix::{Matrix, Scalar};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use parking_lot::Mutex;
use std::time::Instant;

/// Magic bytes opening every tile-store file (version 1).
const MAGIC: &[u8; 8] = b"CAOOCTS1";
/// Header: magic + four little-endian `u64` fields
/// (`elem_bytes`, `m`, `n`, `panel_width`).
const HEADER_LEN: u64 = 8 + 4 * 8;

/// Byte counters for one store: reads, writes, and panel-load timing.
#[derive(Debug, Default)]
pub struct IoVolume {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    panel_loads: AtomicU64,
    load_nanos: AtomicU64,
}

/// Point-in-time copy of an [`IoVolume`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoSnapshot {
    /// Total bytes read from the file.
    pub bytes_read: u64,
    /// Total bytes written to the file.
    pub bytes_written: u64,
    /// Number of panel/chunk load operations.
    pub panel_loads: u64,
    /// Wall-clock seconds spent in load operations.
    pub load_seconds: f64,
}

impl IoSnapshot {
    /// Element-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            panel_loads: self.panel_loads - earlier.panel_loads,
            load_seconds: self.load_seconds - earlier.load_seconds,
        }
    }
}

impl IoVolume {
    fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read.load(Relaxed),
            bytes_written: self.bytes_written.load(Relaxed),
            panel_loads: self.panel_loads.load(Relaxed),
            load_seconds: self.load_nanos.load(Relaxed) as f64 / 1e9,
        }
    }
}

/// A matrix stored on disk as block-column panels.
///
/// `m × n` elements of `T`, column-major, one file. The nominal panel
/// width recorded in the header is layout metadata from the creator; the
/// accessors take arbitrary column ranges (panels are contiguous byte
/// runs either way).
pub struct TileStore<T: Scalar> {
    file: Mutex<File>,
    path: PathBuf,
    m: usize,
    n: usize,
    w: usize,
    stats: IoVolume,
    _elem: PhantomData<T>,
}

// By hand: the file handle's lock has no `Debug`.
impl<T: Scalar> std::fmt::Debug for TileStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileStore")
            .field("path", &self.path)
            .field("m", &self.m)
            .field("n", &self.n)
            .field("w", &self.w)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

fn err(op: &str, e: std::io::Error) -> FactorError {
    FactorError::io(op, e)
}

impl<T: Scalar> TileStore<T> {
    /// Creates (truncating) a store for an `m × n` matrix with nominal
    /// panel width `w`, pre-sizing the file to its final length.
    pub fn create(path: impl AsRef<Path>, m: usize, n: usize, w: usize) -> Result<Self, FactorError> {
        assert!(m > 0 && n > 0 && w > 0, "empty store shape");
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| err("create", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        for v in [T::BYTES as u64, m as u64, n as u64, w as u64] {
            header.extend_from_slice(&v.to_le_bytes());
        }
        file.write_all(&header).map_err(|e| err("create", e))?;
        file.set_len(HEADER_LEN + (m * n * T::BYTES) as u64).map_err(|e| err("create", e))?;
        Ok(Self { file: Mutex::new(file), path, m, n, w, stats: IoVolume::default(), _elem: PhantomData })
    }

    /// Opens an existing store, validating the header against `T` and the
    /// file: a nonzero shape and panel width whose body is exactly the
    /// file's length past the header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, FactorError> {
        let path = path.as_ref().to_path_buf();
        let refuse = |message: String| FactorError::Io { op: "open".into(), message };
        let mut file =
            OpenOptions::new().read(true).write(true).open(&path).map_err(|e| err("open", e))?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header).map_err(|e| err("open", e))?;
        if &header[..8] != MAGIC {
            return Err(refuse(format!("{}: not a tile store (bad magic)", path.display())));
        }
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&header[8 + i * 8..16 + i * 8]);
            u64::from_le_bytes(b)
        };
        let (eb, m, n, w) = (word(0), word(1), word(2), word(3));
        if eb != T::BYTES as u64 {
            let expected = format!("{} expected for {}", T::BYTES, T::NAME);
            return Err(refuse(format!("element width {eb} in file, {expected}")));
        }
        if m == 0 || n == 0 || w == 0 {
            return Err(refuse(format!("empty shape {m} x {n}, panel width {w}")));
        }
        let len = file.metadata().map_err(|e| err("open", e))?.len();
        let body = m.checked_mul(n).and_then(|mn| mn.checked_mul(eb));
        if body.and_then(|b| b.checked_add(HEADER_LEN)) != Some(len) {
            let shape = format!("{m} x {n} of {eb}-byte elements");
            return Err(refuse(format!("{shape} does not fit a {len}-byte file")));
        }
        let dim = |v: u64| usize::try_from(v).map_err(|_| refuse(format!("dimension {v} too large")));
        let (m, n, w) = (dim(m)?, dim(n)?, dim(w)?);
        Ok(Self { file: Mutex::new(file), path, m, n, w, stats: IoVolume::default(), _elem: PhantomData })
    }

    /// Row count.
    pub fn nrows(&self) -> usize {
        self.m
    }

    /// Column count.
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Nominal panel width from the header.
    pub fn panel_width(&self) -> usize {
        self.w
    }

    /// Number of nominal panels (`⌈n/w⌉`).
    pub fn num_panels(&self) -> usize {
        self.n.div_ceil(self.w)
    }

    /// Width of nominal panel `j`.
    pub fn width_of(&self, j: usize) -> usize {
        self.w.min(self.n - j * self.w)
    }

    /// Backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This store's transfer counters.
    pub fn io(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    fn offset(&self, row: usize, col: usize) -> u64 {
        HEADER_LEN + ((col * self.m + row) * T::BYTES) as u64
    }

    /// Reads columns `c0..c0+nc`, rows `r0..m`, as an `(m-r0) × nc` matrix.
    ///
    /// This is the streaming primitive of the left-looking drivers: a prior
    /// panel's factor block enters RAM one column range at a time, never
    /// whole. Counts bytes and load latency.
    pub fn read_cols(&self, c0: usize, nc: usize, r0: usize) -> Result<Matrix<T>, FactorError> {
        assert!(r0 < self.m, "row start out of bounds");
        self.read_block(r0, self.m - r0, c0, nc)
    }

    /// Reads the `rows × nc` block at `(r0, c0)` (the general form of
    /// [`TileStore::read_cols`] — CAQR uses it to pull one leaf's reflector
    /// trapezoid without the rows below its group).
    pub fn read_block(
        &self,
        r0: usize,
        rows: usize,
        c0: usize,
        nc: usize,
    ) -> Result<Matrix<T>, FactorError> {
        assert!(c0 + nc <= self.n && r0 + rows <= self.m, "block out of bounds");
        let t0 = Instant::now();
        let mut out = Matrix::<T>::zeros(rows, nc);
        let mut raw = vec![0u8; rows * T::BYTES];
        {
            let mut file = self.file.lock();
            for c in 0..nc {
                file.seek(SeekFrom::Start(self.offset(r0, c0 + c)))
                    .map_err(|e| err("read_cols", e))?;
                file.read_exact(&mut raw).map_err(|e| err("read_cols", e))?;
                let col = &mut out.as_mut_slice()[c * rows..(c + 1) * rows];
                decode_column::<T>(&raw, col);
            }
        }
        let bytes = (rows * nc * T::BYTES) as u64;
        self.account_read(bytes, t0.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Writes `a` into columns `c0..c0+a.ncols()`, rows `r0..r0+a.nrows()`.
    pub fn write_cols(&self, c0: usize, r0: usize, a: &Matrix<T>) -> Result<(), FactorError> {
        let (rows, nc) = (a.nrows(), a.ncols());
        assert!(c0 + nc <= self.n && r0 + rows <= self.m, "write range out of bounds");
        let mut raw = vec![0u8; rows * T::BYTES];
        {
            let mut file = self.file.lock();
            for c in 0..nc {
                encode_column::<T>(&a.as_slice()[c * rows..(c + 1) * rows], &mut raw);
                file.seek(SeekFrom::Start(self.offset(r0, c0 + c)))
                    .map_err(|e| err("write_cols", e))?;
                file.write_all(&raw).map_err(|e| err("write_cols", e))?;
            }
        }
        let bytes = (rows * nc * T::BYTES) as u64;
        self.stats.bytes_written.fetch_add(bytes, Relaxed);
        Ok(())
    }

    /// Reads nominal panel `j` in full height.
    pub fn read_panel(&self, j: usize) -> Result<Matrix<T>, FactorError> {
        self.read_cols(j * self.w, self.width_of(j), 0)
    }

    /// Writes nominal panel `j` (full height).
    pub fn write_panel(&self, j: usize, a: &Matrix<T>) -> Result<(), FactorError> {
        assert_eq!(a.nrows(), self.m, "panel must be full height");
        assert_eq!(a.ncols(), self.width_of(j), "panel width mismatch");
        self.write_cols(j * self.w, 0, a)
    }

    /// Fills the store from an in-RAM matrix (tests, benches, import).
    pub fn import_matrix(&self, a: &Matrix<T>) -> Result<(), FactorError> {
        assert_eq!((a.nrows(), a.ncols()), (self.m, self.n), "shape mismatch");
        self.write_cols(0, 0, a)
    }

    /// Materializes the whole store in RAM (small matrices only).
    pub fn export_matrix(&self) -> Result<Matrix<T>, FactorError> {
        self.read_cols(0, self.n, 0)
    }

    /// Flushes file buffers to the OS.
    pub fn sync(&self) -> Result<(), FactorError> {
        self.file.lock().sync_all().map_err(|e| err("sync", e))
    }

    fn account_read(&self, bytes: u64, nanos: u64) {
        self.stats.bytes_read.fetch_add(bytes, Relaxed);
        self.stats.panel_loads.fetch_add(1, Relaxed);
        self.stats.load_nanos.fetch_add(nanos, Relaxed);
    }
}

fn encode_column<T: Scalar>(src: &[T], raw: &mut [u8]) {
    debug_assert_eq!(raw.len(), src.len() * T::BYTES);
    for (v, dst) in src.iter().zip(raw.chunks_exact_mut(T::BYTES)) {
        dst.copy_from_slice(&v.to_bits_u64().to_le_bytes()[..T::BYTES]);
    }
}

fn decode_column<T: Scalar>(raw: &[u8], dst: &mut [T]) {
    debug_assert_eq!(raw.len(), dst.len() * T::BYTES);
    for (chunk, v) in raw.chunks_exact(T::BYTES).zip(dst.iter_mut()) {
        let mut b = [0u8; 8];
        b[..T::BYTES].copy_from_slice(chunk);
        *v = T::from_bits_u64(u64::from_le_bytes(b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_matrix::{random_uniform, seeded_rng};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ca_ooc_store_{name}_{}.bin", std::process::id()))
    }

    #[test]
    fn roundtrip_is_bitwise_both_precisions() {
        let a = random_uniform(23, 11, &mut seeded_rng(9));
        let path = tmp("rt64");
        let s = TileStore::<f64>::create(&path, 23, 11, 4).unwrap();
        s.import_matrix(&a).unwrap();
        let b = s.export_matrix().unwrap();
        for j in 0..11 {
            for i in 0..23 {
                assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits());
            }
        }
        let a32 = Matrix::<f32>::from_f64(&a);
        let p32 = tmp("rt32");
        let s32 = TileStore::<f32>::create(&p32, 23, 11, 4).unwrap();
        s32.import_matrix(&a32).unwrap();
        let b32 = s32.export_matrix().unwrap();
        for j in 0..11 {
            for i in 0..23 {
                assert_eq!(a32[(i, j)].to_bits(), b32[(i, j)].to_bits());
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&p32);
    }

    #[test]
    fn partial_reads_and_writes_address_the_right_block() {
        let a = random_uniform(10, 8, &mut seeded_rng(3));
        let path = tmp("partial");
        let s = TileStore::<f64>::create(&path, 10, 8, 3).unwrap();
        s.import_matrix(&a).unwrap();
        // rows 4.., cols 2..5
        let blk = s.read_cols(2, 3, 4).unwrap();
        for c in 0..3 {
            for r in 0..6 {
                assert_eq!(blk[(r, c)], a[(4 + r, 2 + c)]);
            }
        }
        // Overwrite that block with zeros, check surroundings intact.
        s.write_cols(2, 4, &Matrix::zeros(6, 3)).unwrap();
        let b = s.export_matrix().unwrap();
        assert_eq!(b[(4, 2)], 0.0);
        assert_eq!(b[(3, 2)], a[(3, 2)]);
        assert_eq!(b[(4, 1)], a[(4, 1)]);
        assert_eq!(b[(4, 5)], a[(4, 5)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_validates_header_and_preserves_data() {
        let a = random_uniform(6, 6, &mut seeded_rng(1));
        let path = tmp("reopen");
        {
            let s = TileStore::<f64>::create(&path, 6, 6, 2).unwrap();
            s.import_matrix(&a).unwrap();
            s.sync().unwrap();
        }
        let s = TileStore::<f64>::open(&path).unwrap();
        assert_eq!((s.nrows(), s.ncols(), s.panel_width(), s.num_panels()), (6, 6, 2, 3));
        assert_eq!(s.export_matrix().unwrap(), a);
        // Wrong element type must be refused.
        assert!(matches!(
            TileStore::<f32>::open(&path),
            Err(FactorError::Io { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn io_counters_track_transfer_volume() {
        let path = tmp("vol");
        let s = TileStore::<f64>::create(&path, 16, 8, 4).unwrap();
        let before = s.io();
        s.import_matrix(&random_uniform(16, 8, &mut seeded_rng(2))).unwrap();
        let p = s.read_panel(1).unwrap();
        assert_eq!((p.nrows(), p.ncols()), (16, 4));
        let d = s.io().since(&before);
        assert_eq!(d.bytes_written, 16 * 8 * 8);
        assert_eq!(d.bytes_read, 16 * 4 * 8);
        assert_eq!(d.panel_loads, 1);
        let _ = std::fs::remove_file(&path);
    }
}
