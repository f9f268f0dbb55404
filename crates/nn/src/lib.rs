//! # nn
//!
//! A deliberately small, CPU-only neural-network library: row-major
//! `f32` tensors, dense and embedding layers with manual backprop, an
//! Adam optimiser, softmax cross-entropy, and an `Mlp` classifier head
//! (the two-layer MLP + ReLU the paper attaches to every encoder).
//!
//! Everything is deterministic given a seed. The matmul kernels in
//! [`kernel`] are cache-blocked and optionally row-parallel, but every
//! output element is always a single floating-point chain over the
//! shared dimension in ascending index order, so results are
//! bit-identical regardless of blocking or the thread budget set via
//! [`kernel::set_kernel_threads`]. The [`simd`] module adds an
//! explicit-SIMD lane (runtime-dispatched, scalar fallback, `simd`
//! cargo feature) whose outputs are bit-identical to the scalar
//! kernels — it holds the only `unsafe` in the workspace.
//!
//! ```
//! use nn::{Mlp, Tensor};
//!
//! // Learn XOR.
//! let x = Tensor::from_rows(&[vec![0.,0.], vec![0.,1.], vec![1.,0.], vec![1.,1.]]);
//! let y = [0u16, 1, 1, 0];
//! let mut mlp = Mlp::new(&[2, 8, 2], 42);
//! for _ in 0..400 { mlp.train_batch(&x, &y, 0.05); }
//! assert_eq!(mlp.predict(&x), vec![0, 1, 1, 0]);
//! ```

#![deny(unsafe_code)] // `simd` opts out locally, with its safety story documented
#![warn(missing_docs)]

pub mod adam;
pub mod dense;
pub mod dropout;
pub mod embedding;
pub mod envelope;
pub mod frozen;
pub mod kernel;
pub mod loss;
pub mod mlp;
pub mod schedule;
pub mod simd;
pub mod tensor;

pub use adam::{Adam, RowAdam};
pub use dense::Dense;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use frozen::{FrozenArtifact, FrozenError, Int8Matrix};
pub use kernel::{kernel_stats, kernel_threads, set_kernel_threads, KernelStats, Workspace};
pub use mlp::{Mlp, MlpScratch};
pub use schedule::LrSchedule;
pub use simd::Lane;
pub use tensor::Tensor;
