//! The four workloads as data: every shape a run uses comes from here.
//!
//! Each workload measures one thing end to end (its `focus`) but carries a
//! shape for every layer, so that a traced run reports every per-layer
//! metric: the focus runs at full size for the measured seconds, the other
//! two drivers run once at a small size.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Focus {
    /// In-core `calu` / `caqr` of the dense shape.
    Dense,
    /// The closed-loop service trace.
    Serve,
    /// `ooc_calu` / `ooc_caqr` over a `TileStore`.
    Ooc,
}

/// An `m × n` factorization with panel width `b` and `tr` tree leaves. The
/// kernel and tree-node probes take their operand shapes from it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dense {
    pub m: usize,
    pub n: usize,
    pub b: usize,
    pub tr: usize,
}

/// A job trace: `(dimension, count)` per size class, smallest first; kinds
/// cycle lu / qr / solve / lstsq inside each class so the mix is exact.
#[derive(Clone, Copy, Debug)]
pub struct Trace {
    pub classes: [(usize, usize); 3],
    pub rhs: usize,
    /// Closed-loop clients, each waiting for its reply before it submits again.
    pub clients: usize,
    pub capacity: usize,
    /// Jobs up to this dimension are batched by the service.
    pub batch_dim: usize,
    pub b: usize,
    pub tr: usize,
}

#[derive(Clone, Copy, Debug)]
pub struct Ooc {
    pub n: usize,
    pub b: usize,
    pub tr: usize,
    pub budget_bytes: usize,
}

impl Ooc {
    /// The same factorization as an in-core problem.
    pub fn as_dense(&self) -> Dense {
        Dense { m: self.n, n: self.n, b: self.b, tr: self.tr }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub focus: Focus,
    pub dense: Dense,
    pub trace: Trace,
    pub ooc: Ooc,
    /// `(n, b)` of the tiled-baseline reference rows.
    pub tiled: (usize, usize),
    /// Upper limit on one array of the copy-bandwidth probe.
    pub stream_cap_bytes: usize,
}

const MIB: usize = 1 << 20;

const FULL_TRACE: Trace =
    Trace { classes: [(64, 40), (256, 40), (768, 20)], rhs: 16, clients: 4, capacity: 16, batch_dim: 64, b: 64, tr: 4 };
/// The same mix at two fifths of the length, for workloads that only
/// sample the serving layer.
const SIDE_TRACE: Trace = Trace { classes: [(64, 16), (256, 16), (768, 8)], ..FULL_TRACE };
const FULL_OOC: Ooc = Ooc { n: 2048, b: 32, tr: 2, budget_bytes: 8 * MIB };
const SIDE_OOC: Ooc = Ooc { n: 1024, b: 16, tr: 2, budget_bytes: 4 * MIB };

/// The workload `name` at benchmark size, or at a size where a whole run
/// takes under two seconds (`smoke`, used by the harness's own tests).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let (focus, dense) = match name {
        "square" => (Focus::Dense, Dense { m: 2048, n: 2048, b: 64, tr: 4 }),
        "tall" => (Focus::Dense, Dense { m: 100_000, n: 200, b: 100, tr: 8 }),
        "serve" => (Focus::Serve, Dense { m: 768, n: 768, b: 64, tr: 4 }),
        "ooc" => (Focus::Ooc, FULL_OOC.as_dense()),
        _ => return None,
    };
    let full = Spec {
        focus,
        dense,
        trace: if focus == Focus::Serve { FULL_TRACE } else { SIDE_TRACE },
        ooc: if focus == Focus::Ooc { FULL_OOC } else { SIDE_OOC },
        tiled: (1024, 128),
        stream_cap_bytes: 128 * MIB,
    };
    if !smoke {
        return Some(full);
    }
    let ooc = Ooc { n: 256, b: 16, tr: 2, budget_bytes: 3 * MIB / 2 };
    let dense = match focus {
        Focus::Ooc => ooc.as_dense(),
        _ if name == "tall" => Dense { m: 4000, n: 64, b: 32, tr: 4 },
        _ => Dense { m: 256, n: 256, b: 32, tr: 4 },
    };
    Some(Spec {
        dense,
        trace: Trace { classes: [(32, 8), (64, 8), (128, 4)], batch_dim: 32, b: 32, ..FULL_TRACE },
        ooc,
        tiled: (128, 32),
        stream_cap_bytes: 4 * MIB,
        ..full
    })
}
