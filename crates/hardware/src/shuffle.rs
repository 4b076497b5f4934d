//! The cyclic shuffling network.
//!
//! The node mapping of Section 3 reduces the full permutation `Π` of the
//! Tanner graph to *cyclic shifts* of 360 lanes: entry `x = a·q + r`
//! connects lane `t` (information node `360g + t`) to the check node handled
//! by functional unit `(a + t) mod 360`. A barrel rotator therefore replaces
//! an arbitrary permutation network — the paper's key to the tiny 0.55 mm²
//! network area and congestion-free routing.

/// A cyclic-shift (barrel rotator) network over `lanes` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuffleNetwork {
    lanes: usize,
}

impl ShuffleNetwork {
    /// Creates a network of the given width (360 for DVB-S2).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        ShuffleNetwork { lanes }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Rotates `data` so that input lane `t` appears on output lane
    /// `(t + shift) mod lanes`, writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the lane count.
    pub fn rotate<T: Copy>(&self, data: &[T], shift: usize, out: &mut [T]) {
        assert_eq!(data.len(), self.lanes, "input width mismatch");
        assert_eq!(out.len(), self.lanes, "output width mismatch");
        let s = shift % self.lanes;
        let (head, tail) = data.split_at(self.lanes - s);
        out[s..].copy_from_slice(head);
        out[..s].copy_from_slice(tail);
    }

    /// The shift that undoes `shift` (used on check-phase write-back so
    /// "messages are shuffled back to their original position").
    pub fn inverse_shift(&self, shift: usize) -> usize {
        (self.lanes - shift % self.lanes) % self.lanes
    }

    /// Number of mux stages a barrel-rotator realization needs,
    /// `ceil(log2(lanes))` — 9 for 360 lanes.
    pub fn stages(&self) -> usize {
        usize::BITS as usize - (self.lanes - 1).leading_zeros() as usize
    }

    /// NAND2-equivalent gate count of the rotator for `bits`-wide messages:
    /// one 2:1 mux (≈ 2.5 gates) per lane, per bit, per stage.
    pub fn gate_count(&self, bits: usize) -> usize {
        (self.stages() * self.lanes * bits * 5).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_moves_lane_zero_to_shift() {
        let net = ShuffleNetwork::new(8);
        let data: Vec<u32> = (0..8).collect();
        let mut out = vec![0u32; 8];
        net.rotate(&data, 3, &mut out);
        assert_eq!(out, vec![5, 6, 7, 0, 1, 2, 3, 4]);
        assert_eq!(out[3], 0);
    }

    #[test]
    fn rotate_by_zero_is_identity() {
        let net = ShuffleNetwork::new(360);
        let data: Vec<u32> = (0..360).collect();
        let mut out = vec![0u32; 360];
        net.rotate(&data, 0, &mut out);
        assert_eq!(out, data);
        net.rotate(&data, 360, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn inverse_shift_round_trips() {
        let net = ShuffleNetwork::new(360);
        let data: Vec<u32> = (0..360).map(|i| i * 7).collect();
        for shift in [0usize, 1, 45, 180, 359] {
            let mut mid = vec![0u32; 360];
            let mut back = vec![0u32; 360];
            net.rotate(&data, shift, &mut mid);
            net.rotate(&mid, net.inverse_shift(shift), &mut back);
            assert_eq!(back, data, "shift {shift}");
        }
    }

    #[test]
    fn dvbs2_network_has_nine_stages() {
        let net = ShuffleNetwork::new(360);
        assert_eq!(net.stages(), 9);
        // 9 stages x 360 lanes x 6 bits x 2.5 gates = 48600 gates.
        assert_eq!(net.gate_count(6), 48_600);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rotate_rejects_wrong_width() {
        let net = ShuffleNetwork::new(8);
        let mut out = vec![0u8; 8];
        net.rotate(&[0u8; 7], 1, &mut out);
    }
}
