//! The front door to every table and figure of the evaluation.
//!
//! ```text
//! reunion-bench run <id> [--profile full|fast] [--engine dense|skip] ...
//! reunion-bench counters [--engine dense|skip]
//! ```
//!
//! See [`reunion_sim::run_cli`].

fn main() {
    reunion_sim::run_cli();
}
