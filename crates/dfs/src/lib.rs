//! # ibis-dfs — the HDFS-like distributed file system substrate
//!
//! The paper interposes IBIS "upon the GFS/HDFS layer" (§3); this crate is
//! the simulated equivalent of that layer: a namenode that maps files to
//! fixed-size blocks and blocks to replica locations, with the two
//! placement paths that matter to the experiments:
//!
//! * **Pre-loaded input data** ([`Namenode::create_file`]) — replicas
//!   spread (pseudo)randomly, optionally with a configurable skew toward a
//!   subset of nodes. Skewed placement is how the coordination experiment
//!   (Fig. 12) provokes the uneven per-node I/O service that the broker
//!   must compensate for.
//! * **The write pipeline** ([`Namenode::allocate_block`]) — first replica
//!   on the writer's node, remaining replicas on distinct other nodes,
//!   which is what makes every reduce-output write generate both local and
//!   remote I/O.
//!
//! Block size and replication default to the paper's Table 1 values
//! (128 MiB, 3×).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod namenode;
pub mod types;

pub use namenode::{Namenode, NamenodeConfig, Placement};
pub use types::{BlockId, BlockInfo, NodeId};
