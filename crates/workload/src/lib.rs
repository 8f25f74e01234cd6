//! # rsp-workload — workload generation for the RSP toolchain
//!
//! An open-ended workload subsystem: instead of the paper's fixed
//! nine-kernel suite, kernels can be *written* (a human-readable textual
//! DFG format with a parser and pretty-printer), *generated* (parametric
//! families that scale past a 4×4 array), or *drawn* (a seeded
//! random-DFG generator whose outputs are valid by construction). A
//! fixed generated suite is committed under the repository's
//! `workloads/` directory ([`registry()`], regenerated by the
//! `workloadgen` binary) and feeds the `flow-workload` benchmark
//! (`BENCH_workload.json`), whose multi-geometry exploration genuinely
//! selects the paper's 8×8 array.
//!
//! Every workload — parsed, generated, or random — goes through the same
//! contract: it maps (`rsp-mapper`), rearranges (`rsp-core`), and
//! simulates (`rsp-sim`) with a final memory image bit-identical to the
//! reference evaluator (`rsp_kernel::evaluate`); see `tests/pipeline.rs`.
//!
//! # The textual DFG format
//!
//! ```text
//! kernel "saxpy" {                    // name: identifier or "string"
//!   description "out = a*x + y"       // optional
//!   elements 8                        // independent elements (required)
//!   steps 1                           // sequential steps per element
//!   divisor 1                         // element divisor d (2-D spaces)
//!   style lockstep                    // lockstep | dataflow
//!   array x[8]                        // declared before use
//!   array y[8]
//!   array out[8]
//!   param a = 3                       // loop-invariant scalar + default
//!   body {
//!     n0 = load x[i], y[i]            // two addresses = dual load
//!     n1 = mult n0, $a                // $name references a param
//!     n2 = add n1, n0.hi              // .hi reads a dual load's pair
//!     n3 = store out[i], n2
//!   }
//!   // optional: tail { ... } runs once per element after the last step
//! }
//! ```
//!
//! **Addresses** are affine in the iteration indices: inside `X[...]`,
//! terms of the form `base`, `c*i`, `c*j`, and `c*s` (any order, `+`/`-`
//! separated, bare `i`/`j`/`s` meaning coefficient 1) build
//! `base + c_i·(e / d) + c_j·(e % d) + c_s·s` for element `e`, step `s`,
//! and the kernel's `divisor` `d` — exactly
//! [`AddrExpr`](rsp_kernel::AddrExpr).
//!
//! **Operands** are `nK` (an earlier node's value), `nK.hi` (the second
//! word of an earlier dual load), `#c` (an immediate constant), `$name`
//! (a declared parameter), `acc(nK, init)` (the referenced body node's
//! previous-step value, `init` at step 0 — body only), and `carry(nK)`
//! (the final accumulated value of body node `nK` — tail only).
//!
//! **Operations** are `add sub abs min max and or xor shl shr asr mult
//! mov nop` plus `load` (one or two addresses) and `store` (address,
//! value). Node labels must be `n0, n1, ...` in order; operands may only
//! reference earlier nodes. `//` starts a line comment; names that are
//! not identifiers are written as `"quoted"` strings with `\"`, `\\`,
//! `\n`, `\t` escapes.
//!
//! [`parse_kernel`] reports malformed input with 1-based line/column
//! diagnostics ([`ParseError`]); [`print_kernel`] renders the canonical
//! form, and `parse_kernel(&print_kernel(&k)) == Ok(k)` for every valid
//! kernel (property-tested against the paper suite, the parametric
//! generators, and the random generator).
//!
//! # Examples
//!
//! ```
//! use rsp_workload::{generators, parse_kernel, print_kernel};
//!
//! // Parse ∘ print round-trips a generated kernel exactly.
//! let k = generators::fir(32, 4);
//! assert_eq!(parse_kernel(&print_kernel(&k)).unwrap(), k);
//!
//! // Diagnostics carry positions.
//! let err = parse_kernel("kernel \"x\" {\n  bogus 3\n}").unwrap_err();
//! assert_eq!((err.line, err.col), (2, 3));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
pub mod generators;
mod parse;
mod print;
mod random;
mod registry;

pub use error::ParseError;
pub use parse::parse_kernel;
pub use print::print_kernel;
pub use random::{random_kernel, RandomKernelConfig};
pub use registry::{registry, render_workload_file, RANDOM_SEEDS, SUITE_MAX_SLOWDOWN};

/// Canonicalizes a workload file: parse (liberally) then print (in the
/// canonical form the round-trip property is stated over). The parser
/// accepts term omission and reordering in addresses, bare or quoted
/// names, omitted default sections, and `//` comments; the printed form
/// quotes names, spells every scalar section and all four address
/// terms, and drops comments. Canonical input is a fixed point:
/// `canonicalize(canonicalize(s)) == canonicalize(s)`.
///
/// This is the `workloadgen --fmt` mode (the "workloadfmt"
/// canonicalizer for hand-written workloads).
///
/// # Errors
///
/// Any [`ParseError`] of [`parse_kernel`], with its 1-based line/column.
///
/// # Examples
///
/// ```
/// // Non-canonical: bare name, reordered address terms, comments.
/// let src = "kernel scale { // doubles x\n  elements 4\n  array x[8]\n  body {\n    n0 = load x[3 + i]\n    n1 = add n0, n0\n    n2 = store x[4+i], n1\n  }\n}";
/// let canon = rsp_workload::canonicalize(src).unwrap();
/// assert!(canon.contains("kernel \"scale\""));
/// assert_eq!(rsp_workload::canonicalize(&canon).unwrap(), canon);
/// ```
pub fn canonicalize(src: &str) -> Result<String, ParseError> {
    Ok(print_kernel(&parse_kernel(src)?))
}
