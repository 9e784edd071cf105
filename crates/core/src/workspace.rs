//! Reusable scratch memory for the allocation-free distance entry points.
//!
//! Every elastic and kernel measure in this crate runs a rolling dynamic
//! program over a handful of rows, and the sliding/kernel measures built
//! on cross-correlation need FFT buffers. Allocating those per call is
//! the dominant non-arithmetic cost when building the paper's train×train
//! and test×train matrices (millions of calls per dataset), so the batch
//! engine in `tsdist-eval` owns one [`Workspace`] per worker thread and
//! passes it to [`crate::measure::Distance::distance_ws`] /
//! [`crate::measure::Kernel::log_kernel_ws`] — each measure's one body.
//! The convenience entry points [`crate::measure::Distance::distance`]
//! and [`crate::measure::Kernel::kernel`] run that body with a fresh
//! workspace.
//!
//! A [`Workspace`] is a set of independent arenas:
//!
//! * [`Workspace::dp_rows2`] / [`Workspace::dp_rows4`] — `f64` DP rows,
//! * `Workspace::lane_rows` — lane-interleaved rows for the MSM/TWE/DTW
//!   batch-axis row kernels (crate-internal),
//! * [`Workspace::int_rows2`] — `u32` DP rows (LCSS/EDR),
//! * [`Workspace::take_aux`] / [`Workspace::take_aux2`] — owned `f64`
//!   buffers for series-length data (derivatives, weights, rescaled
//!   copies) that must stay alive *across* a nested `distance_ws` call,
//! * [`Workspace::cc_scratch`] — FFT scratch for cross-correlation.
//!
//! Buffers only ever grow; a workspace reused across a matrix row settles
//! at the high-water mark of the measures it served. The arenas hand out
//! uncleared memory — every DP initializes its rows explicitly, which the
//! `ws_equivalence` suite verifies by bit-comparing a fresh workspace
//! against one reused across measures and shapes.

use tsdist_fft::CcScratch;

/// Reusable scratch arenas for [`crate::measure::Distance::distance_ws`].
///
/// Cheap to construct; designed to be created once per worker thread and
/// reused for every pairwise call that thread performs.
#[derive(Default)]
pub struct Workspace {
    dp: Vec<f64>,
    idp: Vec<u32>,
    aux: Vec<f64>,
    aux2: Vec<f64>,
    cc: CcScratch,
}

impl Workspace {
    /// An empty workspace; arenas grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Two `f64` DP rows of length `len`, carved from the shared arena.
    ///
    /// Contents are unspecified (whatever a previous call left behind);
    /// callers must initialize every cell they read.
    pub fn dp_rows2(&mut self, len: usize) -> (&mut [f64], &mut [f64]) {
        if self.dp.len() < 2 * len {
            self.dp.resize(2 * len, 0.0);
        }
        let (a, b) = self.dp[..2 * len].split_at_mut(len);
        (a, b)
    }

    /// Four `f64` DP rows of length `len` (KDTW's paired DPs).
    ///
    /// Contents are unspecified; callers must initialize every cell they
    /// read.
    pub fn dp_rows4(&mut self, len: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        if self.dp.len() < 4 * len {
            self.dp.resize(4 * len, 0.0);
        }
        let (a, rest) = self.dp[..4 * len].split_at_mut(len);
        let (b, rest) = rest.split_at_mut(len);
        let (c, d) = rest.split_at_mut(len);
        (a, b, c, d)
    }

    /// Three diagonal rows of length `rows` plus one `extra` slice, carved
    /// from the shared `f64` DP arena — the layout of the anti-diagonal
    /// wavefront DP kernels (current / previous / second-previous diagonal,
    /// plus measure-specific scratch such as a reversed series or gathered
    /// weights; callers split `extra` further with `split_at_mut`).
    ///
    /// Uses only the `dp` arena, so [`Workspace::take_aux`] /
    /// [`Workspace::take_aux2`] stay free for callers (DDTW derivatives,
    /// WDTW weights) that wrap a wavefront call. Contents are unspecified;
    /// callers must initialize every cell they read.
    pub fn diag_scratch(
        &mut self,
        rows: usize,
        extra: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        let total = 3 * rows + extra;
        if self.dp.len() < total {
            self.dp.resize(total, 0.0);
        }
        let (a, rest) = self.dp[..total].split_at_mut(rows);
        let (b, rest) = rest.split_at_mut(rows);
        let (c, extra) = rest.split_at_mut(rows);
        (a, b, c, extra)
    }

    /// `K` lane-interleaved rows of `len` cells each, carved from the
    /// shared `f64` DP arena — the `[j][lane]` layout of the batch-axis
    /// row kernels behind MSM's, TWE's and DTW's
    /// [`crate::measure::Distance::distance_row_ws`]: cell `j` of all `W`
    /// lanes of a block is one array. The kernels keep the interleaved
    /// columns, the two rolling DP rows and MSM's and TWE's per-column
    /// tables in them.
    ///
    /// Contents are unspecified; callers must initialize every cell they
    /// read.
    pub(crate) fn lane_rows<const K: usize, const W: usize>(
        &mut self,
        len: usize,
    ) -> [&mut [[f64; W]]; K] {
        let cells = K * len * W;
        if self.dp.len() < cells {
            self.dp.resize(cells, 0.0);
        }
        let (mut rest, _) = self.dp[..cells].as_chunks_mut::<W>();
        std::array::from_fn(|_| {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            row
        })
    }

    /// Two `u32` DP rows of length `len` (LCSS/EDR counters).
    ///
    /// Contents are unspecified; callers must initialize every cell they
    /// read.
    pub fn int_rows2(&mut self, len: usize) -> (&mut [u32], &mut [u32]) {
        if self.idp.len() < 2 * len {
            self.idp.resize(2 * len, 0);
        }
        let (a, b) = self.idp[..2 * len].split_at_mut(len);
        (a, b)
    }

    /// Takes ownership of the first auxiliary buffer, cleared but with its
    /// capacity intact. Return it with [`Workspace::put_aux`] so the
    /// capacity is reused by the next call.
    ///
    /// The take/put protocol exists so a measure can hold derived series
    /// (e.g. DDTW's derivatives) while *also* lending the workspace to a
    /// nested `distance_ws` call.
    pub fn take_aux(&mut self) -> Vec<f64> {
        let mut buf = std::mem::take(&mut self.aux);
        buf.clear();
        buf
    }

    /// Returns a buffer taken with [`Workspace::take_aux`].
    pub fn put_aux(&mut self, buf: Vec<f64>) {
        if buf.capacity() > self.aux.capacity() {
            self.aux = buf;
        }
    }

    /// Takes ownership of the second auxiliary buffer (for measures that
    /// need two derived series at once); see [`Workspace::take_aux`].
    pub fn take_aux2(&mut self) -> Vec<f64> {
        let mut buf = std::mem::take(&mut self.aux2);
        buf.clear();
        buf
    }

    /// Returns a buffer taken with [`Workspace::take_aux2`].
    pub fn put_aux2(&mut self, buf: Vec<f64>) {
        if buf.capacity() > self.aux2.capacity() {
            self.aux2 = buf;
        }
    }

    /// The FFT cross-correlation scratch (NCC family, SINK).
    pub fn cc_scratch(&mut self) -> &mut CcScratch {
        &mut self.cc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{LANES, MAX_ROW_BLOCK};

    #[test]
    fn dp_rows_are_disjoint_and_right_sized() {
        let mut ws = Workspace::new();
        let (a, b) = ws.dp_rows2(17);
        assert_eq!(a.len(), 17);
        assert_eq!(b.len(), 17);
        a.fill(1.0);
        b.fill(2.0);
        let (a, b) = ws.dp_rows2(17);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn rows_grow_and_shrink_requests_reuse_the_arena() {
        let mut ws = Workspace::new();
        let (a, _) = ws.dp_rows2(8);
        a[0] = 42.0;
        let (a, b, c, d) = ws.dp_rows4(16);
        assert_eq!(a.len() + b.len() + c.len() + d.len(), 64);
        let (a, _) = ws.dp_rows2(4);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn diag_scratch_is_disjoint_and_right_sized() {
        let mut ws = Workspace::new();
        let (a, b, c, extra) = ws.diag_scratch(11, 30);
        assert_eq!(a.len(), 11);
        assert_eq!(b.len(), 11);
        assert_eq!(c.len(), 11);
        assert_eq!(extra.len(), 30);
        a.fill(1.0);
        b.fill(2.0);
        c.fill(3.0);
        extra.fill(4.0);
        let (a, b, c, extra) = ws.diag_scratch(11, 30);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
        assert!(c.iter().all(|&v| v == 3.0));
        assert!(extra.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn lane_rows_are_disjoint_and_right_sized() {
        fn check<const K: usize, const W: usize>(ws: &mut Workspace, len: usize) {
            for (k, row) in (1..).zip(ws.lane_rows::<K, W>(len)) {
                assert_eq!(row.len(), len);
                row.fill([f64::from(k); W]);
            }
            for (k, row) in (1..).zip(ws.lane_rows::<K, W>(len)) {
                assert!(row.iter().flatten().all(|&v| v == f64::from(k)));
            }
        }
        let mut ws = Workspace::new();
        check::<4, LANES>(&mut ws, 5);
        // A wider block carves the same arena into wider cells.
        check::<3, MAX_ROW_BLOCK>(&mut ws, 7);
    }

    #[test]
    fn int_rows_are_disjoint() {
        let mut ws = Workspace::new();
        let (a, b) = ws.int_rows2(9);
        a.fill(7);
        b.fill(9);
        assert_ne!(a[8], b[0]);
    }

    #[test]
    fn aux_take_put_preserves_capacity() {
        let mut ws = Workspace::new();
        let mut buf = ws.take_aux();
        buf.extend_from_slice(&[1.0; 100]);
        let cap = buf.capacity();
        ws.put_aux(buf);
        let buf = ws.take_aux();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= cap);
    }

    #[test]
    fn aux_buffers_are_independent() {
        let mut ws = Workspace::new();
        let mut a = ws.take_aux();
        let mut b = ws.take_aux2();
        a.push(1.0);
        b.push(2.0);
        ws.put_aux(a);
        ws.put_aux2(b);
        assert!(ws.take_aux().capacity() >= 1);
    }
}
