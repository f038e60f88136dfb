//! # tangle-ledger — an IOTA-style tangle (DAG ledger) substrate
//!
//! This crate implements the distributed-ledger machinery the paper's
//! learning network runs on, independent of machine learning:
//!
//! * [`Tangle`] — an append-only DAG of payload-carrying transactions where
//!   every non-genesis transaction *approves* its parent transactions
//!   (directly, and transitively everything in their past cones).
//! * [`walk`] — tip selection: the weighted random walk from the genesis
//!   used by IOTA (with a configurable randomness parameter α), entered
//!   through a depth window or biased by an external per-transaction score
//!   (the paper §VI outlook: model accuracy as walk bias). Each variant is
//!   a [`walk::WalkTable`] built by [`walk::RandomWalk`]: the confidence
//!   walks over one snapshot read its rows, and every tip is drawn from
//!   its exit distribution.
//! * [`analysis`] — consensus machinery: exact past-cone *ratings*,
//!   future-cone *cumulative weights* and depths, kept current under
//!   append by [`AnalysisCache`] (the batch bitset DPs serve older prefixes
//!   and stand as its oracle), Monte-Carlo walk *confidence*, and the
//!   confidence × rating reference selection of the paper's Algorithm 1.
//! * [`pow`] — a hashcash proof-of-work gate (the Sybil defense the paper
//!   defers to future work).
//! * [`dot`] — Graphviz export reproducing the paper's Fig. 2 coloring.
//!
//! The tangle is generic over its payload `P`; the learning layer stores
//! `Arc<ParamVec>` model snapshots in it.
//!
//! ```
//! use tangle_ledger::{AnalysisCache, Tangle, walk::RandomWalk};
//! use rand::SeedableRng;
//!
//! // A tiny tangle: genesis plus two transactions approving it.
//! let mut tangle = Tangle::new("genesis");
//! let a = tangle.add("a", vec![tangle.genesis()]).unwrap();
//! let b = tangle.add("b", vec![tangle.genesis(), a]).unwrap();
//! assert_eq!(tangle.tips(), vec![b]);
//!
//! // The cache follows the ledger as it grows; one walk table per
//! // snapshot serves every tip draw over it.
//! let mut cache = AnalysisCache::new(&tangle);
//! let c = tangle.add("c", vec![b]).unwrap();
//! cache.refresh(&tangle);
//! let table = RandomWalk::default().table(&tangle, cache.weights());
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! assert_eq!(table.draw_tip(&mut rng), c);
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
