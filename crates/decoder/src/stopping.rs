//! Hard decisions and syndrome-based early termination.

use dvbs2_ldpc::{BitVec, TannerGraph};

/// Hard decision from a-posteriori LLR totals: negative LLR decides bit 1.
pub fn hard_decisions(totals: &[f64]) -> BitVec {
    totals.iter().map(|&t| t < 0.0).collect()
}

/// Hard decision from integer LLR totals.
pub fn hard_decisions_int(totals: &[i32]) -> BitVec {
    totals.iter().map(|&t| t < 0).collect()
}

/// Writes integer-total hard decisions into a preallocated bit vector —
/// the allocation-free form used by [`crate::Decoder::decode_into`].
///
/// # Panics
///
/// Panics if `out.len() != totals.len()`.
pub fn hard_decisions_int_into(totals: &[i32], out: &mut BitVec) {
    out.fill_from(totals, |t| t < 0);
}

/// `true` when every check equation is satisfied by `bits` — the early
/// termination criterion a production decoder applies each iteration.
///
/// # Panics
///
/// Panics if `bits.len() != graph.var_count()`.
pub fn syndrome_ok(graph: &TannerGraph, bits: &BitVec) -> bool {
    assert_eq!(bits.len(), graph.var_count(), "word length mismatch");
    (0..graph.check_count())
        .all(|c| graph.check_edges(c).filter(|&e| bits.get(graph.var_of_edge(e))).count() % 2 == 0)
}

/// Number of unsatisfied check equations — the syndrome weight a
/// bit-flipping decoder drives toward zero. `syndrome_ok` is exactly
/// `syndrome_weight == 0`.
///
/// # Panics
///
/// Panics if `bits.len() != graph.var_count()`.
pub fn syndrome_weight(graph: &TannerGraph, bits: &BitVec) -> usize {
    assert_eq!(bits.len(), graph.var_count(), "word length mismatch");
    (0..graph.check_count())
        .filter(|&c| {
            graph.check_edges(c).filter(|&e| bits.get(graph.var_of_edge(e))).count() % 2 == 1
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn hard_decisions_follow_sign() {
        let bits = hard_decisions(&[1.0, -0.5, 0.0, -2.0]);
        assert!(!bits.get(0) && bits.get(1) && !bits.get(2) && bits.get(3));
    }

    #[test]
    fn codewords_pass_syndrome_random_words_fail() {
        let code = DvbS2Code::new(CodeRate::R9_10, FrameSize::Normal).unwrap();
        let graph = code.tanner_graph();
        let enc = code.encoder().unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let cw = enc.encode(&enc.random_message(&mut rng)).unwrap();
        assert!(syndrome_ok(&graph, &cw));
        let mut flipped = cw;
        flipped.toggle(1234);
        assert!(!syndrome_ok(&graph, &flipped));
    }

    #[test]
    fn syndrome_weight_counts_unsatisfied_checks() {
        let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Short).unwrap();
        let graph = code.tanner_graph();
        let enc = code.encoder().unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let cw = enc.encode(&enc.random_message(&mut rng)).unwrap();
        assert_eq!(syndrome_weight(&graph, &cw), 0);
        let mut flipped = cw;
        flipped.toggle(100);
        let w = syndrome_weight(&graph, &flipped);
        // One flipped variable unsatisfies exactly its incident checks.
        assert_eq!(w, graph.var_edges(100).len());
        assert!(!syndrome_ok(&graph, &flipped));
    }

    #[test]
    fn int_decisions_match_float() {
        let f = hard_decisions(&[3.0, -1.0]);
        let i = hard_decisions_int(&[3, -1]);
        assert_eq!(f, i);
    }

    #[test]
    fn int_decisions_into_matches_allocating_form() {
        let totals = [3, -1, 0, -7];
        let mut out = BitVec::from_bools([true, true, true, true]);
        hard_decisions_int_into(&totals, &mut out);
        assert_eq!(out, hard_decisions_int(&totals));
    }
}
