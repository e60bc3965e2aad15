//! The §4 non-UR → UR transformation.
//!
//! "If D is a tree schema, the non-UR transformation can be done
//! efficiently using semijoins \[5\]." A database state is **UR** when it
//! consists of the projections of a single universal relation; an arbitrary
//! state (e.g. with dangling tuples) is not. For tree schemas, a full
//! reducer produces the largest UR sub-state: after global consistency,
//! every relation equals the projection of the states' own join, i.e. the
//! state *is* `{π_R(I) | R ∈ D}` for `I = ⋈ D`.
//!
//! For cyclic schemas semijoins provably cannot do this (the parity
//! instance in this module's tests is pairwise consistent yet globally
//! empty), so [`to_ur_state`] returns the
//! [`EngineError::Cyclic`](crate::EngineError) diagnostic; the
//! treeification route ([`crate::TreeifyEngine`],
//! [`crate::reduce_via_treeification`]) reaches the same largest UR
//! sub-state on any schema by paying one core join.
//!
//! # Examples
//!
//! ```
//! use gyo_schema::{Catalog, DbSchema};
//! use gyo_relation::{DbState, Relation};
//! use gyo_query::{is_ur_state, to_ur_state};
//!
//! let mut cat = Catalog::alphabetic();
//! let d = DbSchema::parse("ab, bc", &mut cat).unwrap();
//! // The tuple (5, 6) in ab dangles: no bc tuple joins it.
//! let ab = Relation::new(d.rel(0).clone(), vec![vec![1, 2], vec![5, 6]]);
//! let bc = Relation::new(d.rel(1).clone(), vec![vec![2, 3]]);
//! let state = DbState::new(&d, vec![ab, bc]);
//! assert!(!is_ur_state(&d, &state));
//!
//! let fixed = to_ur_state(&d, &state).expect("chains are tree schemas");
//! assert!(is_ur_state(&d, &fixed));
//! assert_eq!(fixed.rel(0).len(), 1, "the dangling tuple is gone");
//!
//! // Cyclic schemas decline, naming the stuck residue.
//! let ring = DbSchema::parse("ab, bc, ca", &mut cat).unwrap();
//! let rstate = DbState::new(&ring, ring.iter()
//!     .map(|r| Relation::empty(r.clone()))
//!     .collect());
//! let err = to_ur_state(&ring, &rstate).unwrap_err();
//! assert_eq!(err.residue(), Some(&ring));
//! ```

use gyo_relation::DbState;
use gyo_schema::DbSchema;

use crate::engine::EngineError;
use crate::yannakakis::full_reduce;

/// Whether the state is a UR database state: every relation equals the
/// projection of the join of all relations (equivalently, the projections
/// of `I = ⋈ D` reproduce the state exactly).
///
/// Computes the full join — use on test-sized states.
pub fn is_ur_state(d: &DbSchema, state: &DbState) -> bool {
    let joined = state.join_all();
    d.iter()
        .enumerate()
        .all(|(i, r)| state.rel(i) == &joined.project(r))
}

/// §4's transformation for tree schemas: semijoin-reduce the state into a
/// UR database state (the largest UR sub-state — only dangling tuples are
/// removed, the join is unchanged). Returns [`EngineError::Cyclic`] for
/// cyclic schemas, where semijoins alone cannot achieve this (see the
/// parity instance in this module's tests); the error names the stuck GYO
/// residue. [`crate::TreeifyEngine`] reaches the same largest UR sub-state
/// on *any* schema by paying one core join.
pub fn to_ur_state(d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
    let reduced = full_reduce(d, state)?;
    debug_assert!(is_ur_state(d, &reduced), "full reduction must yield UR");
    Ok(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gyo_relation::Relation;
    use gyo_schema::{AttrSet, Catalog};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(s: &str, cat: &mut Catalog) -> DbSchema {
        DbSchema::parse(s, cat).unwrap()
    }

    #[test]
    fn projections_of_a_universal_relation_need_not_be_ur() {
        // Surprising but central: {π_R I} is "UR" in the paper's sense
        // (projections of SOME universal relation), yet the state-level
        // check compares against the join of the state itself — which is
        // m_D(I), and π_R(m_D(I)) = π_R(I). So projections ARE UR states.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let i = Relation::new(
            d.attributes(),
            vec![vec![1, 2, 3], vec![4, 2, 5], vec![6, 7, 8]],
        );
        let state = DbState::from_universal(&i, &d);
        assert!(is_ur_state(&d, &state));
    }

    #[test]
    fn dangling_tuples_break_ur_and_reduction_restores_it() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let mut rng = StdRng::seed_from_u64(81);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 15, 40);
        let noisy = gyo_workloads::noisy_ur_state(&mut rng, &i, &d, 10, 1000);
        assert!(!is_ur_state(&d, &noisy), "noise tuples dangle");
        let fixed = to_ur_state(&d, &noisy).expect("tree schema");
        assert!(is_ur_state(&d, &fixed));
        // the transformation preserves the join exactly
        assert_eq!(fixed.join_all(), noisy.join_all());
    }

    #[test]
    fn cyclic_schema_not_transformable_by_semijoins() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let ab = AttrSet::parse("ab", &mut cat).unwrap();
        let bc = AttrSet::parse("bc", &mut cat).unwrap();
        let ca = AttrSet::parse("ac", &mut cat).unwrap();
        // The parity instance: a+b odd, b+c odd, a+c odd. Every pair of
        // relations is semijoin-consistent (no semijoin removes anything),
        // yet the triangle join is empty — so no amount of semijoining can
        // turn this state into a UR database, which is why `to_ur_state`
        // refuses cyclic schemas.
        let state = DbState::new(
            &d,
            vec![
                Relation::new(ab, vec![vec![0, 1], vec![1, 0]]),
                Relation::new(bc, vec![vec![0, 1], vec![1, 0]]),
                Relation::new(ca, vec![vec![0, 1], vec![1, 0]]),
            ],
        );
        let err = to_ur_state(&d, &state).unwrap_err();
        assert_eq!(err.residue(), Some(&d), "the triangle is its own residue");
        assert!(!is_ur_state(&d, &state), "empty join, nonempty relations");
        assert!(state.join_all().is_empty());
        // pairwise consistency: every semijoin is a no-op
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert_eq!(state.rel(i).semijoin(state.rel(j)), *state.rel(i));
                }
            }
        }
    }

    #[test]
    fn empty_states_are_ur() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let i = Relation::empty(d.attributes());
        let state = DbState::from_universal(&i, &d);
        assert!(is_ur_state(&d, &state));
    }
}
