//! Embedding store: the serving-side cache of user embeddings.
//!
//! The paper's online module serves embeddings from a high-performance cache
//! (Redis) fed by offline inference over HDFS. This is the in-process
//! analogue: a sharded read–write-locked map with binary save/load so the
//! offline step can hand artifacts to the online step.

use fvae_ann::io::{read_embeddings, write_embeddings};
use fvae_sparse::serial::DecodeError;
use fvae_sparse::FastHashMap;
use std::sync::RwLock;

/// Number of lock shards; embeddings hash-shard across them so concurrent
/// readers and the (rare) writer don't serialize on a single lock.
const SHARDS: usize = 16;

/// Concurrent user-embedding cache.
pub struct EmbeddingStore {
    dim: usize,
    shards: Vec<RwLock<FastHashMap<u64, Vec<f32>>>>,
}

impl EmbeddingStore {
    /// Creates an empty store for `dim`-dimensional embeddings.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        Self {
            dim,
            shards: (0..SHARDS).map(|_| RwLock::new(FastHashMap::default())).collect(),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn shard(&self, user: u64) -> &RwLock<FastHashMap<u64, Vec<f32>>> {
        // Multiplicative mix so sequential user IDs spread across shards.
        let h = user.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 60) as usize % SHARDS]
    }

    /// Inserts or replaces a user's embedding. Panics on a wrong dimension.
    pub fn put(&self, user: u64, embedding: Vec<f32>) {
        assert_eq!(embedding.len(), self.dim, "embedding dim mismatch");
        self.shard(user).write().expect("store shard lock").insert(user, embedding);
    }

    /// Reads a user's embedding.
    pub fn get(&self, user: u64) -> Option<Vec<f32>> {
        self.shard(user).read().expect("store shard lock").get(&user).cloned()
    }

    /// True if the user is cached.
    pub fn contains(&self, user: u64) -> bool {
        self.shard(user).read().expect("store shard lock").contains_key(&user)
    }

    /// Number of cached users.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("store shard lock").len()).sum()
    }

    /// True when no embeddings are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Average-pools the embeddings of `users`, skipping cache misses;
    /// returns `None` when every user misses. This is the account-embedding
    /// constructor of §V-F.
    pub fn mean_of(&self, users: &[u64]) -> Option<Vec<f32>> {
        let mut acc = vec![0.0f32; self.dim];
        let mut n = 0usize;
        for &u in users {
            if let Some(e) = self.get(u) {
                fvae_tensor::ops::axpy(1.0, &e, &mut acc);
                n += 1;
            }
        }
        if n == 0 {
            return None;
        }
        fvae_tensor::ops::scale(1.0 / n as f32, &mut acc);
        Some(acc)
    }

    /// Serializes the whole store in [`fvae_ann::io`]'s embedding-file
    /// format (ascending user order, so the bytes are deterministic).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut entries: Vec<(u64, Vec<f32>)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.read().expect("store shard lock");
            entries.extend(shard.iter().map(|(&u, e)| (u, e.clone())));
        }
        entries.sort_unstable_by_key(|&(u, _)| u);
        let ids: Vec<u64> = entries.iter().map(|&(u, _)| u).collect();
        let data: Vec<f32> = entries.into_iter().flat_map(|(_, e)| e).collect();
        write_embeddings(self.dim, &ids, &data)
    }

    /// Deserializes a store written by [`EmbeddingStore::to_bytes`]. The
    /// file reader rejects a zero dim and unsorted or duplicate user ids, so
    /// a corrupt or hand-forged file is a typed error, never a panic in
    /// [`EmbeddingStore::new`] or a silently overwritten entry.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let file = read_embeddings(buf)?;
        let store = EmbeddingStore::new(file.dim);
        for (&user, row) in file.ids.iter().zip(file.data.chunks_exact(file.dim)) {
            store.put(user, row.to_vec());
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = EmbeddingStore::new(3);
        store.put(7, vec![1.0, 2.0, 3.0]);
        assert_eq!(store.get(7), Some(vec![1.0, 2.0, 3.0]));
        assert_eq!(store.get(8), None);
        assert!(store.contains(7));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn put_replaces_existing() {
        let store = EmbeddingStore::new(2);
        store.put(1, vec![1.0, 1.0]);
        store.put(1, vec![2.0, 2.0]);
        assert_eq!(store.get(1), Some(vec![2.0, 2.0]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn mean_pools_only_hits() {
        let store = EmbeddingStore::new(2);
        store.put(1, vec![1.0, 0.0]);
        store.put(2, vec![3.0, 2.0]);
        let m = store.mean_of(&[1, 2, 999]).expect("two hits");
        assert_eq!(m, vec![2.0, 1.0]);
        assert_eq!(store.mean_of(&[998, 999]), None);
    }

    #[test]
    fn serialization_roundtrip() {
        let store = EmbeddingStore::new(2);
        for u in 0..100u64 {
            store.put(u, vec![u as f32, -(u as f32)]);
        }
        let bytes = store.to_bytes();
        let back = EmbeddingStore::from_bytes(&bytes).expect("decode");
        assert_eq!(back.len(), 100);
        assert_eq!(back.dim(), 2);
        assert_eq!(back.get(42), Some(vec![42.0, -42.0]));
    }

    #[test]
    fn truncated_bytes_rejected() {
        let store = EmbeddingStore::new(4);
        store.put(1, vec![0.0; 4]);
        let bytes = store.to_bytes();
        assert!(matches!(
            EmbeddingStore::from_bytes(&bytes[..bytes.len() - 2]),
            Err(DecodeError::Truncated)
        ));
    }

    /// A forged file: `n` entries of `(user, dim × 1.0)`.
    fn forged(dim: u64, n: u64, users: &[u64]) -> Vec<u8> {
        use fvae_sparse::serial::{put_f32, put_header, put_u64};
        let mut buf = Vec::new();
        put_header(&mut buf);
        put_u64(&mut buf, dim);
        put_u64(&mut buf, n);
        for &user in users {
            put_u64(&mut buf, user);
            for _ in 0..dim {
                put_f32(&mut buf, 1.0);
            }
        }
        buf
    }

    #[test]
    fn zero_dim_is_rejected_without_panicking() {
        // A forged header with dim = 0 must be a typed decode error, not
        // the assert in `EmbeddingStore::new`.
        match EmbeddingStore::from_bytes(&forged(0, 0, &[])) {
            Err(DecodeError::Invalid(msg)) => assert_eq!(msg, "zero embedding dim"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("zero-dim store accepted"),
        }
    }

    #[test]
    fn duplicate_user_ids_are_rejected() {
        // `to_bytes` writes each user once, ascending; anything else is a
        // corrupt or hand-forged file, and keeping the last occurrence
        // would mask it (and break the declared count).
        for users in [[7u64, 7], [9, 7]] {
            match EmbeddingStore::from_bytes(&forged(2, 2, &users)) {
                Err(DecodeError::Invalid(msg)) => {
                    assert_eq!(msg, "user ids not strictly increasing at 7")
                }
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("user ids {users:?} accepted"),
            }
        }
    }

    #[test]
    fn store_agrees_with_reference_map_under_random_ops() {
        // Model-based: a sequence of put/overwrite operations must leave the
        // sharded store indistinguishable from a plain HashMap.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let store = EmbeddingStore::new(3);
        let mut model = std::collections::HashMap::new();
        for _ in 0..2_000 {
            let user = rng.random_range(0..300u64);
            let emb = vec![rng.random::<f32>(), rng.random::<f32>(), rng.random::<f32>()];
            store.put(user, emb.clone());
            model.insert(user, emb);
        }
        assert_eq!(store.len(), model.len());
        for (&u, e) in &model {
            assert_eq!(store.get(u).as_ref(), Some(e), "user {u}");
        }
        // Serialization must preserve the same state.
        let restored = EmbeddingStore::from_bytes(&store.to_bytes()).expect("decode");
        for (&u, e) in &model {
            assert_eq!(restored.get(u).as_ref(), Some(e));
        }
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::Arc;
        let store = Arc::new(EmbeddingStore::new(2));
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for u in 0..1000u64 {
                    store.put(u, vec![u as f32, 0.0]);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut hits = 0usize;
                    for u in 0..1000u64 {
                        if store.get(u).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        writer.join().expect("writer");
        for r in readers {
            let _ = r.join().expect("reader");
        }
        assert_eq!(store.len(), 1000);
    }
}
