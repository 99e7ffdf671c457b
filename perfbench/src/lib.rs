//! Same-host benchmark of CAPE's serving stack: explain answers over
//! HTTP with a cold and a hot drill cache, and live appends beside
//! reads, plus a traced replay that splits request cost by layer. See
//! README.md in this directory.

pub mod check;
pub mod data;
pub mod fingerprint;
pub mod load;
pub mod replay;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stack;
pub mod stats;
