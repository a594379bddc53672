//! Bench crate: one regeneration binary per paper table and figure in
//! src/bin/ (plus `ablations` and `all_experiments`). Performance is
//! measured by the `ladder` benchmark, not here.
