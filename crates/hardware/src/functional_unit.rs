//! The 360 functional units (Fig. 4).
//!
//! One functional unit serves both node types: in the information phase it
//! is a variable node (Eq. 4 with saturating arithmetic), in the check phase
//! a check node (Eq. 5 via the integer boxplus) that simultaneously runs the
//! zigzag parity update of Section 2.2 — the forward message lives in a
//! register, only backward messages are stored.
//!
//! [`FunctionalUnitArray`] models all 360 units in lockstep, operating on
//! *wide blocks* (one value per lane). Both the untimed golden model and the
//! cycle-accurate core drive this same arithmetic, so any mismatch between
//! them isolates a defect in the memory/timing machinery.
//!
//! The lockstep is literal: a check row is one lane-wide update. The units
//! read their words where the caller keeps them — a group's `i16` words of
//! the message RAM, a row's words followed by two slots into which the array
//! writes every unit's two parity inputs as two more vectors — and write
//! their outputs where the caller asks, in the same layout. [`FuLanes`], the
//! check row the software decoder's lane planes run, holds the units' chain
//! state and sweeps all units at once, on the array's word: `i8` at a
//! 384-lane pitch where the `i8` lanes hold the quantizer (the
//! cycle-accurate core at 4 to 6 bits), `i16` at 360 lanes otherwise (the
//! RAM's word, on which the golden model runs at every width). Quantizers
//! the lanes cannot express take the per-unit [`QBoxplus::extrinsic`] loop
//! over the same chain state, which is also what the lane row is tested
//! against. `DESIGN.md` §7.8 and §7.12 have the layout and the exactness
//! arguments.

use crate::fault::FuFault;
use dvbs2_decoder::{FuLanes, FuWord, QBoxplus, QCheckArithmetic, Quantizer, SimdTier};
use dvbs2_ldpc::{CodeParams, PARALLELISM};

/// Lockstep model of the `P = 360` functional units.
///
/// The parity messages are row-major planes, `plane[r * 360 + u]` for check
/// `j = u·q + r`: a row's 360 messages are one contiguous vector, and what a
/// row hands to its neighbour is a contiguous copy. The array's word `W` is
/// its check rows', its outputs' and its chain state's: `i16` holds every
/// quantizer (at most 16 bits) and is the message RAM's word, which the
/// array reads; `i8` holds the quantizers the `i8` lanes take, on which the
/// cycle-accurate core builds its array.
#[derive(Debug, Clone)]
pub struct FunctionalUnitArray<W = i16> {
    boxplus: QBoxplus,
    /// Modeled datapath defect: a stuck sign/magnitude lane in one unit's
    /// output port, applied to every extrinsic output that unit produces.
    /// Survives [`FunctionalUnitArray::reset`] — a hardware defect does not
    /// heal between frames.
    fault: Option<FuFault>,
    k: usize,
    q_rows: usize,
    row_len: usize,
    /// The units' check row and their chain state: backward, forward,
    /// registers, boundaries.
    units: FuLanes<W>,
    /// The per-unit loop's parity channel `[r * 360 + u]`, kept wide, when
    /// check rows take that loop instead of the lanes.
    per_unit: Option<Vec<i32>>,
    /// One check node's inputs and outputs in the per-unit loop.
    scratch_in: Vec<i32>,
    scratch_out: Vec<i32>,
}

impl FunctionalUnitArray {
    /// Creates the array for a code and message quantizer, on `i16` lanes,
    /// or on the per-unit loop where those cannot express the quantizer.
    pub fn new(params: &CodeParams, quantizer: Quantizer) -> Self {
        Self::build(params, quantizer, None, false)
    }
}

impl<W: FuWord> FunctionalUnitArray<W> {
    /// The array on `W` lanes, or `None` when they cannot express the
    /// quantizer ([`FuLanes::new`]'s eligibility: `i8` takes 4 to 6 bits
    /// with at most four correction steps, `i16` up to 15 bits).
    pub(crate) fn on_lanes(params: &CodeParams, quantizer: Quantizer) -> Option<Self> {
        Some(Self::build(params, quantizer, None, false)).filter(|fu| fu.simd_tier().is_some())
    }

    /// The array at a pinned tier (`None`: [`SimdTier::detect`]), on the
    /// per-unit loop if `per_unit` or if the lanes cannot express the
    /// quantizer. The per-unit loop holds the quantizer only where `W` does.
    fn build(
        params: &CodeParams,
        quantizer: Quantizer,
        forced: Option<SimdTier>,
        per_unit: bool,
    ) -> Self {
        let arithmetic = QCheckArithmetic::lut(quantizer);
        let row_len = params.check_degree - 2;
        let units = FuLanes::<W>::new(&arithmetic, PARALLELISM, params.q, row_len, forced);
        let per_unit = (per_unit || units.tier().is_none()).then(|| vec![0; params.n_check]);
        FunctionalUnitArray {
            boxplus: QBoxplus::new(quantizer),
            fault: None,
            k: params.k,
            q_rows: params.q,
            row_len,
            units,
            per_unit,
            scratch_in: vec![0; params.check_degree],
            scratch_out: vec![0; params.check_degree],
        }
    }

    /// The message quantizer.
    pub fn quantizer(&self) -> &Quantizer {
        self.boxplus.quantizer()
    }

    /// The dispatch tier of the lane-wide check row, or `None` when the
    /// quantizer is outside what the lanes express and check rows take the
    /// per-unit loop.
    pub fn simd_tier(&self) -> Option<SimdTier> {
        self.units.tier().filter(|_| self.per_unit.is_none())
    }

    /// Lanes per message column of a check row (384 on `i8` words, 360 on
    /// `i16`): the units' 360, then pad lanes that hold zero.
    pub(crate) fn pitch(&self) -> usize {
        self.units.pitch()
    }

    /// Injects (or clears) a modeled datapath defect. Both the golden model
    /// and the timed core share this array and drive it in the same logical
    /// order, so a corrupted output is bit-exact across the two by
    /// construction.
    pub(crate) fn set_fault(&mut self, fault: Option<FuFault>) {
        self.fault = fault;
    }

    /// Starts a new frame: clears all stored messages and loads the frame's
    /// parity channel values (`channel` is the full quantized channel
    /// vector).
    ///
    /// # Panics
    ///
    /// Panics if `channel.len() != N`.
    pub fn reset(&mut self, channel: &[i32]) {
        assert_eq!(channel.len(), self.k + self.q_rows * PARALLELISM, "LLR length mismatch");
        let parity = &channel[self.k..];
        self.units.reset(parity);
        if let Some(pchan) = &mut self.per_unit {
            for (u, column) in parity.chunks_exact(self.q_rows).enumerate() {
                for (r, &x) in column.iter().enumerate() {
                    pchan[r * PARALLELISM + u] = x;
                }
            }
        }
    }

    /// Variable-node update for one 360-node information group.
    ///
    /// `block_in` holds the group's `d` incoming check messages per lane
    /// (`block_in[i * 360 + t]`) — the group's words of the message RAM, read
    /// in place — and `channel` the group's 360 channel LLRs. Writes the
    /// `d` extrinsic outputs to `block_out` in the same layout, in the
    /// array's word: every output is saturated to `±max_mag`, which fits.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not 360 wide, `block_in` is not a whole,
    /// nonempty number of 360-wide words or `block_out` is not as long.
    pub fn process_vn_group(&self, channel: &[i32], block_in: &[i16], block_out: &mut [W]) {
        let p = PARALLELISM;
        assert_eq!(channel.len(), p, "channel block must be 360 wide");
        assert!(
            !block_in.is_empty() && block_in.len().is_multiple_of(p),
            "input block must be whole words"
        );
        assert_eq!(block_out.len(), block_in.len(), "output block size mismatch");
        let q = self.boxplus.quantizer();
        let max_mag = q.max_mag();
        let mut totals = [0i32; PARALLELISM];
        totals.copy_from_slice(channel);
        for word in block_in.chunks_exact(p) {
            for (total, &x) in totals.iter_mut().zip(word) {
                *total += x as i32;
            }
        }
        // `Quantizer::saturate`, as a `max`/`min` pair that vectorizes.
        for (out, word) in block_out.chunks_exact_mut(p).zip(block_in.chunks_exact(p)) {
            for ((o, &total), &x) in out.iter_mut().zip(&totals).zip(word) {
                *o = W::narrow((total - x as i32).max(-max_mag).min(max_mag));
            }
        }
        if let Some(f) = self.fault {
            for o in block_out.iter_mut().skip(f.unit()).step_by(p) {
                *o = W::narrow(f.corrupt(i32::from(o.widen()), q));
            }
        }
    }

    /// Loads the chain-boundary forward values into the per-unit registers
    /// (start of every check phase).
    pub fn begin_check_phase(&mut self) {
        self.units.begin();
    }

    /// Check-node update for residue row `r` across all 360 units.
    ///
    /// `row` is the row's `row_len + 2` input vectors of `pitch` lanes (360
    /// on `i16` words, 384 on `i8`): vector `i < row_len`
    /// holds the `i`-th information message (in schedule order) of unit
    /// `u`'s check `j = u·q + r` at `row[i * pitch + u]`, inside the
    /// quantizer's rail, and zero on the pad lanes; the last two vectors are
    /// the units' parity input slots, which the update overwrites. `out` is
    /// as long: the extrinsic information outputs land in its first
    /// `row_len` vectors in the same order (`out[i * pitch + u]`), and the
    /// lane update keeps the parity outputs in the last two. Parity
    /// messages update the internal forward/backward state.
    ///
    /// # Panics
    ///
    /// Panics if `r >= q` or `row` or `out` is not `row_len + 2` vectors long.
    pub fn process_cn_row(&mut self, r: usize, row: &mut [W], out: &mut [W]) {
        assert!(r < self.q_rows, "row {r} out of range");
        assert_eq!(row.len(), (self.row_len + 2) * self.pitch(), "a row is row_len + 2 vectors");
        assert_eq!(out.len(), row.len(), "output row size mismatch");
        if self.per_unit.is_some() {
            return self.cn_row_per_unit(r, row, out);
        }
        let (fault, q, pitch) = (self.fault, *self.boxplus.quantizer(), self.pitch());
        self.units.row(r, row, out, |v_out| {
            if let Some(f) = fault {
                for o in v_out.iter_mut().skip(f.unit()).step_by(pitch) {
                    *o = W::narrow(f.corrupt(i32::from(o.widen()), &q));
                }
            }
        });
    }

    /// The row one unit at a time: gather the unit's inputs, one scalar
    /// [`QBoxplus::extrinsic`], scatter back. The fallback for quantizers
    /// outside the lanes, and the reference the lane row is tested against.
    fn cn_row_per_unit(&mut self, r: usize, row: &[W], out: &mut [W]) {
        let Some(pchan) = &self.per_unit else {
            unreachable!("process_cn_row dispatches on the datapath");
        };
        let (p, pitch) = (PARALLELISM, self.pitch());
        let (q_rows, row_len) = (self.q_rows, self.row_len);
        let wide = |x: W| i32::from(x.widen());
        let q = *self.boxplus.quantizer();
        let (fwd, forward, backward) = self.units.chain_mut();
        for u in 0..p {
            for i in 0..row_len {
                self.scratch_in[i] = wide(row[i * pitch + u]);
            }
            let mut d = row_len;
            // Check j - 1: the row above in the same unit, or the last row
            // of the unit below; check 0 has none.
            let left = match (r, u) {
                (0, 0) => None,
                (0, _) => Some((q_rows - 1) * p + u - 1),
                _ => Some((r - 1) * p + u),
            };
            if let Some(slot) = left {
                self.scratch_in[d] = q.sat_add(pchan[slot], wide(fwd[u]));
                d += 1;
            }
            let right_pos = d;
            self.scratch_in[d] = q.sat_add(pchan[r * p + u], wide(backward[r * p + u]));
            d += 1;

            self.boxplus.extrinsic(&self.scratch_in[..d], &mut self.scratch_out[..d]);
            if let Some(f) = self.fault {
                if f.unit() == u {
                    for v in &mut self.scratch_out[..d] {
                        *v = f.corrupt(*v, &q);
                    }
                }
            }

            for i in 0..row_len {
                out[i * pitch + u] = W::narrow(self.scratch_out[i]);
            }
            if let Some(slot) = left {
                backward[slot] = W::narrow(self.scratch_out[row_len]);
            }
            fwd[u] = W::narrow(self.scratch_out[right_pos]);
        }
        forward[r * p..(r + 1) * p].copy_from_slice(fwd);
    }

    /// Saves the chain-boundary forwards for the next iteration (end of
    /// every check phase).
    pub fn end_check_phase(&mut self) {
        self.units.end();
    }

    /// The stored parity-message state in check order — backward, forward,
    /// then the chain boundaries — exposed so the traced decode entry points
    /// can fold the complete message state into a per-iteration digest.
    pub(crate) fn parity_state(&self) -> impl Iterator<Item = i32> + '_ {
        self.units.parity_state()
    }

    /// Writes the parity a-posteriori totals into `totals[k..n]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices are shorter than `N`.
    pub fn parity_totals(&self, channel: &[i32], totals: &mut [i32]) {
        let n = self.k + self.q_rows * PARALLELISM;
        self.units.parity_totals(&channel[self.k..n], &mut totals[self.k..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2_ldpc::{CodeParams, CodeRate, FrameSize};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn array() -> (CodeParams, FunctionalUnitArray) {
        let p = CodeParams::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let fu = FunctionalUnitArray::new(&p, Quantizer::paper_6bit());
        (p, fu)
    }

    /// Row `r` of `row_len` information vectors at `value`, its parity
    /// input slots and its outputs starting as garbage; returns the
    /// `row_len` output vectors.
    fn cn_row(fu: &mut FunctionalUnitArray, r: usize, row_len: usize, value: i16) -> Vec<i16> {
        let mut row = vec![value; (row_len + 2) * PARALLELISM];
        row[row_len * PARALLELISM..].fill(i16::MIN);
        let mut out = vec![i16::MIN; row.len()];
        fu.process_cn_row(r, &mut row, &mut out);
        out.truncate(row_len * PARALLELISM);
        out
    }

    #[test]
    fn vn_group_computes_extrinsic_totals() {
        let (_, fu) = array();
        let p = PARALLELISM;
        let d = 3;
        let channel = vec![2i32; p];
        let mut block_in = vec![0i16; d * p];
        for i in 0..d {
            for t in 0..p {
                block_in[i * p + t] = i as i16 + 1; // messages 1, 2, 3
            }
        }
        let mut block_out = vec![0i16; d * p];
        fu.process_vn_group(&channel, &block_in, &mut block_out);
        // total = 2 + 1 + 2 + 3 = 8; extrinsic_i = 8 - msg_i.
        for t in 0..p {
            assert_eq!(block_out[t], 7);
            assert_eq!(block_out[p + t], 6);
            assert_eq!(block_out[2 * p + t], 5);
        }
    }

    #[test]
    fn vn_outputs_saturate() {
        let (_, fu) = array();
        let p = PARALLELISM;
        let channel = vec![31i32; p];
        let block_in = vec![31i16; p];
        let mut block_out = vec![0i16; p];
        fu.process_vn_group(&channel, &block_in, &mut block_out);
        assert!(block_out.iter().all(|&o| o == 31)); // 62 - 31 = 31, at rail
    }

    #[test]
    fn cn_row_zero_has_no_left_input_on_unit_zero() {
        // Check 0 (unit 0, row 0) must not consult a left parity message;
        // feed strong inputs and confirm outputs are finite and sign-correct.
        let (params, mut fu) = array();
        fu.reset(&vec![4i32; params.n]);
        fu.begin_check_phase();
        let row_len = params.check_degree - 2;
        let block_out = cn_row(&mut fu, 0, row_len, 10);
        // All inputs positive: no extrinsic may vote for bit 1 (zero is
        // allowed — small magnitudes can quantize away), and the strong
        // input consensus must keep most outputs strictly positive.
        assert!(block_out.iter().all(|&o| o >= 0));
        assert!(block_out.iter().filter(|&&o| o > 0).count() > block_out.len() / 2);
    }

    #[test]
    fn boundary_propagates_between_iterations() {
        let (params, mut fu) = array();
        fu.reset(&vec![4i32; params.n]);
        let row_len = params.check_degree - 2;
        fu.begin_check_phase();
        for r in 0..params.q {
            cn_row(&mut fu, r, row_len, 10);
        }
        fu.end_check_phase();
        // After one full sweep with positive inputs, boundaries are positive
        // forward messages (except unit 0's, which has no predecessor).
        let state: Vec<i32> = fu.parity_state().collect();
        let boundary = &state[state.len() - PARALLELISM..];
        assert_eq!(boundary[0], 0);
        assert!(boundary[1..].iter().all(|&b| b > 0));
    }

    #[test]
    fn reset_clears_state() {
        let (params, mut fu) = array();
        let row_len = params.check_degree - 2;
        let channel = vec![4i32; params.n];
        fu.reset(&channel);
        fu.begin_check_phase();
        cn_row(&mut fu, 0, row_len, 10);
        fu.reset(&channel);
        assert!(fu.parity_state().all(|x| x == 0));
    }

    /// The check phase as the array ran it before its state went row-major:
    /// parity messages in check order, the channel read per check. Kept as
    /// the third party of the property test, where it also pins the check
    /// order of `parity_state` and `parity_totals`.
    struct CheckOrderModel {
        boxplus: QBoxplus,
        fault: Option<FuFault>,
        params: CodeParams,
        backward: Vec<i32>,
        forward: Vec<i32>,
        fwd: Vec<i32>,
        boundary: Vec<i32>,
    }

    impl CheckOrderModel {
        fn new(params: &CodeParams, quantizer: Quantizer, fault: Option<FuFault>) -> Self {
            CheckOrderModel {
                boxplus: QBoxplus::new(quantizer),
                fault,
                params: *params,
                backward: vec![0; params.n_check],
                forward: vec![0; params.n_check],
                fwd: vec![0; PARALLELISM],
                boundary: vec![0; PARALLELISM],
            }
        }

        fn begin_check_phase(&mut self) {
            self.fwd.copy_from_slice(&self.boundary);
        }

        fn process_cn_row(&mut self, r: usize, channel: &[i32], block_in: &[i32]) -> Vec<i32> {
            let p = PARALLELISM;
            let (k, n_check, q_rows) = (self.params.k, self.params.n_check, self.params.q);
            let row_len = self.params.check_degree - 2;
            let q = *self.boxplus.quantizer();
            let mut block_out = vec![0; row_len * p];
            for u in 0..p {
                let j = u * q_rows + r;
                let mut ins: Vec<i32> = (0..row_len).map(|i| block_in[i * p + u]).collect();
                if j > 0 {
                    ins.push(q.sat_add(channel[k + j - 1], self.fwd[u]));
                }
                let back = if j + 1 < n_check { self.backward[j] } else { 0 };
                ins.push(q.sat_add(channel[k + j], back));
                let mut outs = vec![0; ins.len()];
                self.boxplus.extrinsic(&ins, &mut outs);
                if let Some(f) = self.fault.filter(|f| f.unit() == u) {
                    for v in &mut outs {
                        *v = f.corrupt(*v, &q);
                    }
                }
                for i in 0..row_len {
                    block_out[i * p + u] = outs[i];
                }
                if j > 0 {
                    self.backward[j - 1] = outs[row_len];
                }
                self.fwd[u] = *outs.last().unwrap();
                self.forward[j] = self.fwd[u];
            }
            block_out
        }

        fn end_check_phase(&mut self) {
            self.boundary[1..].copy_from_slice(&self.fwd[..PARALLELISM - 1]);
            self.boundary[0] = 0;
        }

        fn parity_state(&self) -> Vec<i32> {
            [&self.backward[..], &self.forward, &self.boundary].concat()
        }
    }

    /// Two check phases over random in-rail blocks on `arrays` and on the
    /// check-order model, every residue row (row 0 and check 0 included):
    /// all of them must agree on every block, on the parity state after each
    /// phase and on the parity totals. The arrays' parity input slots and
    /// outputs start out as noise on the units' lanes, which the update
    /// must overwrite; pad lanes hold zero, as in the core's check image.
    fn assert_rows_agree<W: FuWord>(
        params: &CodeParams,
        quantizer: Quantizer,
        fault: Option<FuFault>,
        arrays: &mut [FunctionalUnitArray<W>],
        what: &str,
    ) {
        let p = PARALLELISM;
        let row_len = params.check_degree - 2;
        let pitch = arrays[0].pitch();
        let word_rail = (1 << (W::BITS - 1)) - 1;
        let noise = |rng: &mut SmallRng| W::narrow(rng.random_range(-word_rail - 1..=word_rail));
        let m = quantizer.max_mag();
        let mut rng = SmallRng::seed_from_u64(0xF0 ^ m as u64);
        // Parity channel values on, just beyond and far beyond the rail: the
        // lanes hold them clamped to ±(2·max_mag + 1), the models read them
        // wide. Half the units of rows 0 and q - 1 (the rows whose chain
        // inputs cross a unit) sit at, or one past, that clamp and i16's.
        let mut channel: Vec<i32> = (0..params.n)
            .map(|_| match rng.random_range(0..8) {
                0 => rng.random_range(-3 * m..=3 * m),
                1 => rng.random_range(-100_000..=100_000),
                _ => rng.random_range(-m..=m),
            })
            .collect();
        let exact = [2 * m + 1, 2 * m + 2, i16::MAX as i32, i16::MAX as i32 + 1];
        for (j, x) in channel[params.k..].iter_mut().enumerate() {
            let (u, r) = (j / params.q, j % params.q);
            if (r == 0 || r == params.q - 1) && u % 2 == 0 {
                *x = exact[u / 2 % 4] * [1, -1][u / 8 % 2];
            }
        }
        let mut model = CheckOrderModel::new(params, quantizer, fault);
        for fu in arrays.iter_mut() {
            fu.set_fault(fault);
            fu.reset(&channel);
        }
        for phase in 0..2 {
            model.begin_check_phase();
            arrays.iter_mut().for_each(FunctionalUnitArray::begin_check_phase);
            for r in 0..params.q {
                let block_in: Vec<i32> =
                    (0..row_len * p).map(|_| rng.random_range(-m..=m)).collect();
                let mut row = vec![W::default(); (row_len + 2) * pitch];
                for (i, column) in row.chunks_exact_mut(pitch).enumerate() {
                    for (u, x) in column[..p].iter_mut().enumerate() {
                        *x = match block_in.get(i * p + u) {
                            Some(&x) => W::narrow(x),
                            None => noise(&mut rng),
                        };
                    }
                }
                let want = model.process_cn_row(r, &channel, &block_in);
                for (index, fu) in arrays.iter_mut().enumerate() {
                    let mut out: Vec<W> = (0..row.len()).map(|_| noise(&mut rng)).collect();
                    fu.process_cn_row(r, &mut row.clone(), &mut out);
                    let got: Vec<i32> = out[..row_len * pitch]
                        .chunks_exact(pitch)
                        .flat_map(|column| column[..p].iter().map(|&x| i32::from(x.widen())))
                        .collect();
                    assert_eq!(got, want, "{what}: array {index} phase {phase} row {r}");
                }
            }
            model.end_check_phase();
            for (index, fu) in arrays.iter_mut().enumerate() {
                fu.end_check_phase();
                let state: Vec<i32> = fu.parity_state().collect();
                assert_eq!(state, model.parity_state(), "{what}: array {index} phase {phase}");
            }
        }
        let totals = |fu: &FunctionalUnitArray<W>| {
            let mut totals = vec![0i32; params.n];
            fu.parity_totals(&channel, &mut totals);
            totals
        };
        let want: Vec<i32> = (0..params.n_check)
            .map(|j| channel[params.k + j] + model.forward[j] + model.backward[j])
            .collect();
        for fu in arrays.iter() {
            assert_eq!(totals(fu)[params.k..], want[..], "{what}: parity totals");
        }
    }

    fn fu_faults(max_mag: i32) -> [Option<FuFault>; 4] {
        [
            None,
            Some(FuFault::StuckSign { unit: 0, negative: true }),
            Some(FuFault::StuckMag { unit: 17, value: max_mag }),
            Some(FuFault::StuckSign { unit: 359, negative: false }),
        ]
    }

    /// The lane row and the per-unit loop on `W` words at every available
    /// tier, each against the check-order model, under every fault of
    /// [`fu_faults`].
    fn assert_lanes_equal_the_per_unit_loop<W: FuWord>(params: &CodeParams, quantizer: Quantizer) {
        let bits = quantizer.bits();
        for tier in SimdTier::available() {
            let lanes = FunctionalUnitArray::<W>::build(params, quantizer, Some(tier), false);
            assert_eq!(lanes.simd_tier(), Some(tier), "{bits} bits must run on i{} lanes", W::BITS);
            let per_unit = FunctionalUnitArray::<W>::build(params, quantizer, Some(tier), true);
            assert_eq!(per_unit.simd_tier(), None);
            for fault in fu_faults(quantizer.max_mag()) {
                let what = format!("{bits} bits on i{}, {tier:?}, {fault:?}", W::BITS);
                let mut arrays = [lanes.clone(), per_unit.clone()];
                assert_rows_agree(params, quantizer, fault, &mut arrays, &what);
            }
        }
    }

    #[test]
    fn lane_row_update_equals_the_per_unit_loop() {
        let params = CodeParams::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        // 15 bits at step 0.25 is the widest quantizer the `i16` lanes take
        // (`2·max_mag = i16::MAX − 1`, three correction steps), and the one
        // whose parity input `pchan + msg` reaches 3·max_mag + 1 > i16::MAX;
        // 6 bits is the widest the `i8` lanes take, on 384-lane columns.
        for quantizer in
            [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(15, 0.25)]
        {
            assert_lanes_equal_the_per_unit_loop::<i16>(&params, quantizer);
        }
        for quantizer in [Quantizer::paper_6bit(), Quantizer::paper_5bit(), Quantizer::new(4, 1.0)]
        {
            assert_lanes_equal_the_per_unit_loop::<i8>(&params, quantizer);
        }
    }

    #[test]
    fn quantizers_outside_the_lanes_take_the_per_unit_loop() {
        // ln 2 / 0.1 rounds to seven correction steps, three more than the
        // lane kernel carries; 16 bits put 2·max_mag beyond i16.
        let params = CodeParams::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        for quantizer in [Quantizer::new(6, 0.1), Quantizer::new(16, 0.25)] {
            let fu = FunctionalUnitArray::new(&params, quantizer);
            assert_eq!(fu.simd_tier(), None, "{quantizer:?}");
            assert!(FunctionalUnitArray::<i8>::on_lanes(&params, quantizer).is_none());
            for fault in fu_faults(quantizer.max_mag()) {
                let what = format!("{quantizer:?}, {fault:?}");
                assert_rows_agree(&params, quantizer, fault, &mut [fu.clone()], &what);
            }
        }
    }

    #[test]
    fn the_paper_point_runs_on_the_lanes() {
        // Whatever the build's target-cpu: the array reaches vector code
        // through the tier clones, and `DVBS2_SIMD` picks the clone.
        let params = CodeParams::new(CodeRate::R1_2, FrameSize::Normal).unwrap();
        let fu = FunctionalUnitArray::new(&params, Quantizer::paper_6bit());
        assert_eq!(fu.simd_tier(), Some(SimdTier::detect()));
    }
}
