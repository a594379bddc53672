//! Int8 serving is bit-identical across pool parallelism and SIMD backends.
//!
//! This test switches the process-wide backend with `simd::force`, so it
//! lives alone in its own test binary: no other test can dispatch a kernel
//! while the backend is switched.

mod common;

use common::{fixtures_dir, int8_config, read_fixture_requests, serve_all};
use fvae_serve::Server;

#[test]
fn int8_serve_is_bit_identical_across_threads_and_simd_backends() {
    use fvae_tensor::simd;
    let requests = read_fixture_requests();

    let mut reference: Option<Vec<Vec<u32>>> = None;
    let original = simd::active();
    for backend in [simd::scalar(), simd::detected()] {
        simd::force(backend);
        for threads in [1usize, 2, 4] {
            fvae_pool::set_parallelism(threads);
            let server = Server::start(int8_config(&fixtures_dir())).expect("start int8 server");
            let served: Vec<Vec<u32>> = serve_all(&server, &requests)
                .into_iter()
                .map(|row| row.into_iter().map(f32::to_bits).collect())
                .collect();
            drop(server);
            match &reference {
                None => reference = Some(served),
                Some(want) => assert_eq!(
                    &served, want,
                    "int8 serve not bit-identical on backend {} at {threads} threads",
                    backend.name
                ),
            }
        }
    }
    simd::force(original);
}
