//! Benchmark harness for the `meba` workspace.
//!
//! One module per concern:
//!
//! * [`runs`] — builds and executes a single protocol configuration under
//!   a named adversary and returns its [`runs::RunStats`];
//! * [`table`] — plain-text table rendering for the bench binaries;
//! * [`fit`] — tiny least-squares helpers used to report complexity
//!   shapes (`c·n·(f+1)`, `c·n²`).
//!
//! The `benches/` directory holds one binary per experiment (E1–E20, in
//! EXPERIMENTS.md, plus the T1 criterion microbenchmarks), and that binary
//! is the experiment's only definition: its scenario grid, its table and
//! its asserts. Each prints the table/figure series the paper's Table 1
//! implies and asserts the qualitative shape (who wins, by what order,
//! where crossovers fall).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fit;
pub mod runs;
pub mod table;
