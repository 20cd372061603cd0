//! The invariant passes. Each pass is a `run(&Workspace, &mut Report)` that appends
//! `file:line` findings plus any audit artifact it maintains (inventory, census).
//!
//! | pass | invariant |
//! |------|-----------|
//! | [`unsafe_audit`] | every `unsafe` site carries an adjacent `// SAFETY:` argument |
//! | [`atomics`] | `SeqCst` anywhere, and `Acquire`/`Release`/`AcqRel` on the publication path, carry `// ORDERING:` arguments; census per crate |
//! | [`hotpath`] | declared hot functions contain no allocation tokens |
//! | [`metrics`] | metric-name literals match the telemetry-doc + README contract |

pub mod atomics;
pub mod hotpath;
pub mod metrics;
pub mod unsafe_audit;
