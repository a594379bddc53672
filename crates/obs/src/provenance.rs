//! Run provenance for benchmark reports: which git revision produced a
//! number, and whether the working tree was clean when it ran.
//!
//! Every JSON report — `fvae ann --json`, `fvae loadgen --json` and the
//! `ladder` benchmark's documents — stamps [`git_rev`] and [`git_dirty`]
//! at run time. A report produced before committing therefore carries the
//! parent revision plus `"dirty": true` — honest provenance — instead of
//! passing for a measurement of a clean revision.

use std::process::Command;

/// `git rev-parse HEAD` of the working tree at run time, or `"unknown"`
/// when git (or a repository) is unavailable.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the working tree has uncommitted changes (`git status
/// --porcelain` non-empty). Returns `true` when git is unavailable — a
/// number of unknown provenance must not masquerade as clean.
pub fn git_dirty() -> bool {
    Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.iter().all(|b| b.is_ascii_whitespace()))
        .unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rev_is_nonempty_and_dirty_is_computable() {
        // Works both inside a repo (40-hex rev) and outside ("unknown").
        let rev = git_rev();
        assert!(!rev.is_empty());
        if rev != "unknown" {
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
        }
        let _ = git_dirty(); // must not panic anywhere
    }
}
