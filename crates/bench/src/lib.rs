//! Shared helpers for the experiment binaries (`exp_paper` checks the
//! paper's claims, `exp_bench` writes `BENCH_hotpath.json`; see
//! `EXPERIMENTS.md` at the workspace root) and the one report [`table`]
//! type both print with.

#![forbid(unsafe_code)]

pub mod table;

use p2p_ltr::harness::LtrNet;
use p2p_ltr::LtrConfig;
use simnet::{Duration, NetConfig};

/// Print `text` to stdout as it is; a closed pipe (`exp_bench | head`)
/// ends the run quietly with status 0 instead of `print!`'s panic.
pub fn emit(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|_| out.flush()) {
        std::process::exit(i32::from(e.kind() != std::io::ErrorKind::BrokenPipe));
    }
}

/// Build a network and let the ring stabilize.
pub fn settled_net(seed: u64, net_cfg: NetConfig, peers: usize, cfg: LtrConfig) -> LtrNet {
    settled_net_with(seed, net_cfg, peers, cfg, |_| {})
}

/// [`settled_net`] with a configuration hook that runs *before* the ring
/// settles (e.g. `|net| net.enable_wire_accounting()` so stabilization
/// traffic is metered too).
pub fn settled_net_with(
    seed: u64,
    net_cfg: NetConfig,
    peers: usize,
    cfg: LtrConfig,
    configure: impl FnOnce(&mut LtrNet),
) -> LtrNet {
    let mut net = LtrNet::build(seed, net_cfg, peers, cfg, Duration::from_millis(150));
    configure(&mut net);
    // Stabilization horizon grows slowly with network size.
    let secs = 20 + (peers as u64) / 4;
    net.settle(secs);
    net
}

/// Format a boolean as a check.
pub fn ok(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

/// `count` per second of `ms` milliseconds; 0 when no time passed.
pub fn per_sec(count: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        count as f64 / (ms / 1e3)
    } else {
        0.0
    }
}
