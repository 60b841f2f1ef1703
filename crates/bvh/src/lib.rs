//! Bounding Volume Hierarchy substrate.
//!
//! Implements the acceleration structure the predictor operates on (§2.4):
//!
//! * a binned-SAH binary BVH builder ([`BvhBuilder`]),
//! * a 64-byte Aila–Laine node record ([`BvhNode`]) where fetching one
//!   interior node yields both children's bounding boxes, and where each
//!   node carries its parent index in the padded space (enabling the Go Up
//!   Level of §4.3 without extra memory traffic),
//! * the while-while traversal loop of Algorithm 1 for both **any-hit**
//!   (occlusion) and **closest-hit** queries, exposed as a *steppable*
//!   state machine so the cycle-level simulator can interleave rays,
//! * Morton-order ray sorting (the Aila–Laine quicksort baseline of §5.2),
//! * the byte-address layout of the node/triangle buffers used for cache
//!   simulation,
//! * the batched ray-stream layer: the SoA [`RayBatch`] with its
//!   un-sortable [`StreamPermutation`] ([`stream`]), and the unified
//!   [`TraversalKernel`] trait fronting the while-while, stackless and
//!   4-wide traversal loops ([`kernel`]),
//! * the process-wide job budget that every parallel user in the
//!   workspace takes its extra threads from ([`budget`]).
//!
//! # Examples
//!
//! ```
//! use rip_bvh::{Bvh, TraversalKind};
//! use rip_math::{Ray, Triangle, Vec3};
//!
//! let tris = vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)];
//! let bvh = Bvh::build(&tris);
//! let ray = Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z);
//! let result = bvh.intersect(&ray, TraversalKind::AnyHit);
//! assert!(result.hit.is_some());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod budget;
mod builder;
mod bvh;
pub mod kernel;
mod layout;
mod node;
pub mod ript;
pub mod serial;
pub mod simd;
pub mod sorting;
mod stack;
pub mod stackless;
mod stats;
pub mod stream;
mod traversal;
mod wide;

pub use builder::{BvhBuilder, JobMap, SplitMethod};
pub use bvh::Bvh;
pub use kernel::{StacklessKernel, SteppableKernel, TraversalKernel, WhileWhileKernel, WideKernel};
pub use layout::{MemoryLayout, NODE_SIZE, TRI_SIZE, WIDE_NODE_SIZE};
pub use node::{BvhNode, CompressedWideNode, NodeId, NodeKind, QuantFrame, EMPTY_WIDE_CHILD};
pub use stack::{ShortStack, TraversalStack, HW_STACK_CAPACITY, SHORT_STACK_CAPACITY};
pub use stats::TraversalStats;
pub use stream::{RayBatch, StreamPermutation};
pub use traversal::{Hit, LeanStep, Traversal, TraversalKind, TraversalResult};
pub use wide::{WideBvh, WideResult, WIDE_ARITY};
