//! `simd::force` switches the process-wide backend and back.
//!
//! The switch is visible to every thread of the process, so this test lives
//! alone in its own test binary: no other test can read `active()` or
//! compare kernel bits while the backend is switched.

use fvae_tensor::simd::{active, force, scalar};

#[test]
fn force_overrides_and_restores_dispatch() {
    let original = active();
    force(scalar());
    assert_eq!(active().name, "scalar");
    force(original);
    assert_eq!(active().name, original.name);
}
