//! The batched softmax's per-batch candidate set (§IV-C2), without hashing.

use fvae_data::MultiFieldDataset;

/// One field's candidate set for one batch. Feature ids are dense vocabulary
/// ids, so a stamp array (`RowGrads`'s idiom: one `u32` per vocabulary entry)
/// maps members to columns, and emptying the set walks its members. The stamp
/// grows with the vocabulary; after that, nothing here allocates.
#[derive(Debug, Default)]
pub(crate) struct CandidateSet {
    /// Feature id → column + 1 (0 = not a member).
    stamp: Vec<u32>,
    /// Members in column order.
    columns: Vec<u32>,
}

impl CandidateSet {
    /// Empties the set and sizes the stamp for feature ids below `vocab`.
    pub(crate) fn reset(&mut self, vocab: usize) {
        for &f in &self.columns {
            self.stamp[f as usize] = 0;
        }
        self.columns.clear();
        if self.stamp.len() < vocab {
            self.stamp.resize(vocab, 0);
        }
    }

    /// Appends `f` as the next column; false when it is a member already.
    pub(crate) fn insert(&mut self, f: u32) -> bool {
        let stamp = &mut self.stamp[f as usize];
        if *stamp != 0 {
            return false;
        }
        self.columns.push(f);
        *stamp = self.columns.len() as u32;
        true
    }

    /// Refills the set with the features field `k` of `users` holds, in
    /// columns sorted by id.
    pub(crate) fn gather(&mut self, ds: &MultiFieldDataset, users: &[usize], k: usize) {
        self.reset(ds.field_vocab(k));
        for &u in users {
            for &i in ds.user_field(u, k).0 {
                self.insert(i);
            }
        }
        self.columns.sort_unstable();
        for (c, &f) in self.columns.iter().enumerate() {
            self.stamp[f as usize] = c as u32 + 1;
        }
    }

    /// Members in column order.
    pub(crate) fn columns(&self) -> &[u32] {
        &self.columns
    }

    /// Column of `f`, or `None` when `f` is not a member.
    pub(crate) fn column(&self, f: u32) -> Option<u32> {
        self.stamp[f as usize].checked_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{FieldSpec, TopicModelConfig};
    use std::collections::BTreeSet;

    #[test]
    fn gather_matches_a_sorted_set_reference() {
        let ds = TopicModelConfig {
            n_users: 40,
            n_topics: 3,
            alpha: 0.2,
            fields: vec![
                FieldSpec::new("ch", 10, 3, 1.0),
                FieldSpec::new("tag", 60, 6, 1.0),
            ],
            pair_prob: 0.0,
            seed: 3,
        }
        .generate();
        let mut set = CandidateSet::default();
        for (k, users) in [
            (1, (0..40).collect::<Vec<_>>()),
            (0, vec![7, 3, 3, 19]),
            (1, vec![5]),
        ] {
            let want: BTreeSet<u32> =
                users.iter().flat_map(|&u| ds.user_field(u, k).0).copied().collect();
            set.gather(&ds, &users, k);
            assert_eq!(set.columns(), want.iter().copied().collect::<Vec<_>>());
            for (c, &f) in set.columns().iter().enumerate() {
                assert_eq!(set.column(f), Some(c as u32));
            }
            let outside = (0..ds.field_vocab(k) as u32).find(|f| !want.contains(f));
            assert_eq!(outside.and_then(|f| set.column(f)), None);
        }
    }

    #[test]
    fn reset_forgets_members_and_insert_rejects_repeats() {
        let mut set = CandidateSet::default();
        set.reset(8);
        assert!(set.insert(5) && set.insert(2) && !set.insert(5));
        assert_eq!((set.columns(), set.column(2)), (&[5, 2][..], Some(1)));
        set.reset(16);
        assert_eq!(
            (set.columns(), set.column(5), set.column(2)),
            (&[][..], None, None)
        );
        assert!(set.insert(12) && set.insert(5));
        assert_eq!(set.column(5), Some(1));
    }
}
