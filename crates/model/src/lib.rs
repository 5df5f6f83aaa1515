#![warn(missing_docs)]

//! GPT-like transformer with hand-written backpropagation.
//!
//! This crate plays the role PyTorch plays for the real ZeRO-Infinity: it
//! defines the module hierarchy, forward/backward computation, activation
//! checkpointing, and — crucially — the [`param::ParamStore`] seam through
//! which a training engine interposes on every parameter access.
//!
//! The paper automates data movement by injecting pre/post forward and
//! backward hooks into PyTorch submodules (Sec. 7.1). Here those hooks
//! are one function, [`param::Bracket`]: a runner names a module of its
//! plan and hands in the arithmetic, and the bracket announces upcoming
//! modules (`ParamStore::hint_upcoming`), gathers the module's parameters
//! (`get`), deposits its gradients (`add_grad`) and releases what it
//! gathered (`release`) on every path. Model code never calls the store:
//! a naive dense store gives classic data-parallel behaviour, while the
//! ZeRO-Infinity engine in `zero-infinity` implements the same trait with
//! partitioning, offload and prefetch.
//!
//! External parameters (Sec. 7.1.1) appear as the tied embedding/LM-head
//! weight: the head module declares the embedding's parameter as
//! *external*, the bracket gathers it for the head exactly as the paper's
//! registration mechanism does, and `Bracket::held` keeps it gathered
//! from the head's forward through the loss to its backward.
//!
//! # Example
//!
//! One training step against the dense in-memory store:
//!
//! ```
//! use zi_model::{DenseStore, GptConfig, GptModel, RunOptions};
//!
//! let model = GptModel::new(GptConfig::tiny());
//! let mut store = DenseStore::new(model.registry());
//! let seq = GptConfig::tiny().seq;
//! let tokens: Vec<usize> = (0..seq).map(|i| i % 16).collect();
//! let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % 16).collect();
//! let loss = model
//!     .train_step(&mut store, &tokens, &targets, &RunOptions::default())
//!     .unwrap();
//! assert!(loss.is_finite());
//! ```

pub mod gpt;
pub mod layers;
pub mod mp;
pub mod param;

pub use gpt::{ActivationStore, GptConfig, GptModel, InMemoryActStore, NoopObserver, Phase, RunObserver, RunOptions};
pub use mp::{MpGptModel, NoReduce, TensorReduce};
pub use param::{Bracket, DenseStore, InitKind, ModulePlan, ParamId, ParamMeta, ParamRegistry, ParamStore};
