//! A hermetic virtual OS for the LDX reproduction.
//!
//! The paper's runtime intercepts Linux syscalls; this crate substitutes an
//! in-memory world with the same observable structure so the whole system
//! is deterministic and testable:
//!
//! * a **virtual filesystem** with directories, file descriptors, and the
//!   rename/unlink/mkdir operations the paper's resource-tainting rules
//!   (§7) are defined over (unlike Unix, a closed descriptor number is
//!   never handed out again within one world);
//! * **scripted network peers** standing in for remote hosts (servers the
//!   program connects to) and scripted *clients* for programs that accept
//!   connections;
//! * a **virtual clock**, **PID**, and deterministic **entropy** — the
//!   nondeterministic inputs whose outcomes the slave reuses from the
//!   master (like `rdtsc` in the paper);
//! * a **copy-on-divergence overlay** ([`SlaveVos`]): when the dual
//!   executions diverge, the slave performs its decoupled syscalls against
//!   clones of the affected resources so it never interferes with the
//!   master's world (paper §7 "Light-weight Resource Tainting"). The
//!   master's world is versioned ([`Vos::versioned`]), so a clone shows
//!   it as of the last master syscall the slave consumed, however far
//!   the master has run ahead.
//!
//! The crate deliberately knows nothing about dual execution itself; it
//! only provides interceptable syscalls with recordable outcomes. The
//! coupling protocol lives in `ldx-dualex`.

mod config;
mod error;
mod fs;
mod net;
mod overlay;
mod state;
mod world;

pub use config::{PeerBehavior, VosConfig};
pub use error::VosError;
pub use fs::{normalize_path, Node, Segments};
pub use overlay::SlaveVos;
pub use state::{SysArg, SysRet, VosState};
pub use world::Vos;
