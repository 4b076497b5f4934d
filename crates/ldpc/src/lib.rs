//! DVB-S2 LDPC code construction: the substrate of the DATE 2005 paper
//! *"A Synthesizable IP Core for DVB-S2 LDPC Code Decoding"*.
//!
//! This crate builds the irregular repeat-accumulate (IRA) LDPC codes of the
//! DVB-S2 standard for all eleven code rates at the 64 800-bit normal frame
//! (and, as an extension, the 16 200-bit short frame):
//!
//! * [`CodeRate`] / [`FrameSize`] / [`CodeParams`] — the Table 1 parameters;
//! * [`AddressTable`] — the random connectivity (Eq. 2), generated
//!   synthetically with the standard's exact structure (see `DESIGN.md`);
//! * [`ParityCheckMatrix`] and [`TannerGraph`] — sparse views for syndrome
//!   checks and message-passing decoders; a code's graph keeps the table's
//!   residue rows ([`QuasiCyclic`]), which every 360-lane plan reads;
//! * [`Encoder`] — linear-time IRA encoding (Eq. 2–3).
//!
//! # Example
//!
//! ```
//! use dvbs2_ldpc::{CodeRate, DvbS2Code, FrameSize};
//! # fn main() -> Result<(), dvbs2_ldpc::CodeError> {
//! let code = DvbS2Code::new(CodeRate::R1_2, FrameSize::Normal)?;
//! assert_eq!(code.params().n, 64_800);
//! assert_eq!(code.params().q, 90);
//!
//! let encoder = code.encoder()?;
//! let mut rng = rand::rng();
//! let message = encoder.random_message(&mut rng);
//! let codeword = encoder.encode(&message)?;
//! assert!(code.parity_check_matrix().is_codeword(&codeword));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod bits;
mod encoder;
mod error;
mod matrix;
mod params;
mod rate;
mod tables;
mod tanner;

pub use bits::BitVec;
pub use encoder::Encoder;
pub use error::CodeError;
pub use matrix::ParityCheckMatrix;
pub use params::{CodeParams, DegreeClass};
pub use rate::{CodeRate, FrameSize, PARALLELISM};
pub use tables::{AddressTable, TableOptions};
pub use tanner::{QcEntry, QuasiCyclic, TannerGraph};

/// A fully-constructed DVB-S2 LDPC code: parameters plus address table.
///
/// This is the convenient entry point; the individual pieces remain available
/// for callers that need to supply their own tables or tweak generation.
#[derive(Debug, Clone)]
pub struct DvbS2Code {
    params: CodeParams,
    table: AddressTable,
}

impl DvbS2Code {
    /// Constructs the code for a rate/frame combination with default
    /// (deterministic, girth-conditioned) table generation.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnsupportedCombination`] for rate 9/10 with
    /// short frames.
    pub fn new(rate: CodeRate, frame: FrameSize) -> Result<Self, CodeError> {
        Self::with_options(rate, frame, TableOptions::default())
    }

    /// Constructs the code with explicit table-generation options.
    ///
    /// # Errors
    ///
    /// Same as [`DvbS2Code::new`].
    pub fn with_options(
        rate: CodeRate,
        frame: FrameSize,
        options: TableOptions,
    ) -> Result<Self, CodeError> {
        let params = CodeParams::new(rate, frame)?;
        let table = AddressTable::generate(&params, options);
        Ok(DvbS2Code { params, table })
    }

    /// Constructs the code from an externally supplied address table (for
    /// example the standard's own annex values).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::TableShape`] if the table does not match.
    pub fn from_table(
        rate: CodeRate,
        frame: FrameSize,
        rows: Vec<Vec<u32>>,
    ) -> Result<Self, CodeError> {
        let params = CodeParams::new(rate, frame)?;
        let table = AddressTable::from_rows(&params, rows)?;
        Ok(DvbS2Code { params, table })
    }

    /// The structural parameters (Table 1 row).
    pub fn params(&self) -> &CodeParams {
        &self.params
    }

    /// The base-address table (Eq. 2 connectivity).
    pub fn table(&self) -> &AddressTable {
        &self.table
    }

    /// Builds the IRA encoder.
    ///
    /// # Errors
    ///
    /// Never fails for a code constructed through this type; the `Result`
    /// mirrors [`Encoder::new`] for symmetry with external tables.
    pub fn encoder(&self) -> Result<Encoder, CodeError> {
        Encoder::new(self.params, &self.table)
    }

    /// Materializes the sparse parity-check matrix.
    pub fn parity_check_matrix(&self) -> ParityCheckMatrix {
        ParityCheckMatrix::for_code(&self.params, &self.table)
    }

    /// Builds the Tanner graph for message-passing decoders.
    pub fn tanner_graph(&self) -> TannerGraph {
        TannerGraph::for_code(&self.params, &self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_pieces_are_mutually_consistent() {
        let code = DvbS2Code::new(CodeRate::R8_9, FrameSize::Normal).unwrap();
        let h = code.parity_check_matrix();
        let g = code.tanner_graph();
        assert_eq!(h.nnz(), g.edge_count());
        assert_eq!(h.rows(), g.check_count());
        assert_eq!(h.cols(), g.var_count());
    }

    #[test]
    fn from_table_round_trips_generated_rows() {
        let code = DvbS2Code::new(CodeRate::R9_10, FrameSize::Normal).unwrap();
        let rows = code.table().rows().to_vec();
        let rebuilt = DvbS2Code::from_table(CodeRate::R9_10, FrameSize::Normal, rows).unwrap();
        assert_eq!(rebuilt.table(), code.table());
    }
}
