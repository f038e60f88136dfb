//! # tangle-ledger — an IOTA-style tangle (DAG ledger) substrate
//!
//! This crate implements the distributed-ledger machinery the paper's
//! learning network runs on, independent of machine learning:
//!
//! * [`Tangle`] — an append-only DAG of payload-carrying transactions where
//!   every non-genesis transaction *approves* its parent transactions
//!   (directly, and transitively everything in their past cones).
//! * [`walk`] — tip-selection algorithms: uniform tips, the weighted random
//!   walk from the genesis used by IOTA (with a configurable randomness
//!   parameter α), and a biased walk accepting an external per-transaction
//!   score (the paper §VI outlook: model accuracy as walk bias); many walks
//!   over one snapshot share its [`walk::WalkTable`].
//! * [`analysis`] — consensus machinery: exact past-cone *ratings* and
//!   future-cone *cumulative weights* via bitset dynamic programming,
//!   Monte-Carlo walk *confidence*, and the confidence × rating reference
//!   selection of the paper's Algorithm 1.
//! * [`pow`] — a hashcash proof-of-work gate (the Sybil defense the paper
//!   defers to future work).
//! * [`dot`] — Graphviz export reproducing the paper's Fig. 2 coloring.
//!
//! The tangle is generic over its payload `P`; the learning layer stores
//! `Arc<ParamVec>` model snapshots in it.
//!
//! ```
//! use tangle_ledger::{Tangle, walk::{TipSelector, RandomWalk}};
//! use rand::SeedableRng;
//!
//! // A tiny tangle: genesis plus two transactions approving it.
//! let mut tangle = Tangle::new("genesis");
//! let a = tangle.add("a", vec![tangle.genesis()]).unwrap();
//! let b = tangle.add("b", vec![tangle.genesis(), a]).unwrap();
//! assert_eq!(tangle.tips(), vec![b]);
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let tip = RandomWalk::default().select_tip(&tangle, &mut rng);
//! assert_eq!(tip, b);
//! ```

pub mod analysis;
pub mod bitset;
pub mod dot;
pub mod graph;
pub mod pow;
pub mod view;
pub mod walk;

pub use analysis::{AnalysisCache, CacheError, ConsensusView, RefreshOutcome, TangleAnalysis};
pub use bitset::BitSet;
pub use graph::{Tangle, Transaction, TxError, TxId, TxView};
pub use view::{TangleRead, TangleView};
