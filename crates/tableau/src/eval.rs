//! Direct tableau evaluation: a tableau *is* a conjunctive query over the
//! universal relation, and this module runs it as one.
//!
//! `evaluate(T, I)` finds every symbol assignment `ν` such that applying
//! `ν` to each row of `T` yields a tuple of `I`, and returns the summary
//! images `ν(X)` — by definition exactly `Tab(D, X)` evaluated as
//! `π_X(⋈_{R∈D} π_R I)`. The test suite proves that identity against the
//! relational engine, which gives the library two *independent* semantics
//! for every query: symbolic (this module) and algebraic (`gyo-relation`).
//!
//! The instance is a [`Relation`] and every tuple access is a `&[u64]`
//! row slice of its flat buffer; matches are collected into one flat
//! output buffer, so evaluation allocates nothing per tuple.
//!
//! Evaluation is backtracking join with most-constrained-row selection,
//! mirroring the containment-mapping search in [`crate::mapping`] — the
//! Chandra–Merlin correspondence made executable.

use gyo_relation::Relation;
use gyo_schema::FxHashMap;

use crate::symbol::Symbol;
use crate::tableau::Tableau;

/// Evaluates the tableau on the universal instance `universal` (a relation
/// whose column order matches `T.attrs()` order), returning the answer
/// relation over `T.target()` — normalized exactly like every other
/// [`Relation`].
///
/// # Panics
///
/// Panics if `universal`'s attribute set differs from `T.attrs()`.
pub fn evaluate(t: &Tableau, universal: &Relation) -> Relation {
    assert_eq!(
        universal.attrs(),
        t.attrs(),
        "universal instance must range over the tableau's attributes"
    );
    let mut results: Vec<u64> = Vec::new();
    let mut result_rows = 0usize;
    let mut binding: FxHashMap<Symbol, u64> = FxHashMap::default();
    let mut assigned = vec![usize::MAX; t.row_count()];

    // Empty tableau: one empty assignment; summary = distinguished values,
    // but with no rows there are no bindings — only valid if X is empty.
    if t.row_count() == 0 {
        return if t.target().is_empty() {
            Relation::identity()
        } else {
            Relation::empty(t.target().clone())
        };
    }

    search(
        t,
        universal,
        &mut assigned,
        &mut binding,
        &mut results,
        &mut result_rows,
    );
    Relation::from_row_major(t.target().clone(), result_rows, results)
}

fn row_matches(t: &Tableau, row: usize, tuple: &[u64], binding: &FxHashMap<Symbol, u64>) -> bool {
    t.rows()[row]
        .iter()
        .zip(tuple)
        .all(|(&sym, &v)| binding.get(&sym).is_none_or(|&b| b == v))
}

fn search(
    t: &Tableau,
    universal: &Relation,
    assigned: &mut [usize],
    binding: &mut FxHashMap<Symbol, u64>,
    results: &mut Vec<u64>,
    result_rows: &mut usize,
) {
    // pick the unassigned row with the fewest matching tuples
    let mut best: Option<(usize, Vec<usize>)> = None;
    // `assigned` holds one slot per tableau row.
    for (row, _) in assigned
        .iter()
        .enumerate()
        .filter(|(_, &u)| u == usize::MAX)
    {
        let matches: Vec<usize> = (0..universal.len())
            .filter(|&u| row_matches(t, row, universal.row(u), binding))
            .collect();
        if matches.is_empty() {
            return; // dead end
        }
        let better = best.as_ref().is_none_or(|(_, m)| matches.len() < m.len());
        if better {
            let forced = matches.len() == 1;
            best = Some((row, matches));
            if forced {
                break;
            }
        }
    }
    let Some((row, matches)) = best else {
        // all rows assigned: read off the summary
        results.extend(
            t.target()
                .iter()
                .map(|a| binding[&Symbol::Distinguished(a)]),
        );
        *result_rows += 1;
        return;
    };
    for u in matches {
        let mut added: Vec<Symbol> = Vec::new();
        let mut ok = true;
        for (&sym, &v) in t.rows()[row].iter().zip(universal.row(u)) {
            match binding.get(&sym) {
                Some(&b) if b == v => {}
                Some(_) => {
                    ok = false;
                    break;
                }
                None => {
                    binding.insert(sym, v);
                    added.push(sym);
                }
            }
        }
        if ok {
            assigned[row] = u;
            search(t, universal, assigned, binding, results, result_rows);
            assigned[row] = usize::MAX;
        }
        for s in added {
            binding.remove(&s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gyo_schema::{AttrSet, Catalog, DbSchema};

    fn setup(schema: &str, x: &str) -> (Tableau, DbSchema, AttrSet) {
        let mut cat = Catalog::alphabetic();
        let d = DbSchema::parse(schema, &mut cat).unwrap();
        let xs = AttrSet::parse(x, &mut cat).unwrap();
        (Tableau::standard(&d, &xs), d, xs)
    }

    fn instance(t: &Tableau, rows: &[&[u64]]) -> Relation {
        Relation::new(t.attrs().clone(), rows.iter().map(|r| r.to_vec()).collect())
    }

    #[test]
    fn chain_query_on_tiny_instance() {
        let (t, _, _) = setup("ab, bc", "ac");
        // I = {(1,2,3), (4,2,5)} over abc: joining ab with bc through b=2
        // yields (a,c) ∈ {(1,3),(1,5),(4,3),(4,5)}.
        let i = instance(&t, &[&[1, 2, 3], &[4, 2, 5]]);
        let out = evaluate(&t, &i);
        assert_eq!(
            out.to_vecs(),
            vec![vec![1, 3], vec![1, 5], vec![4, 3], vec![4, 5]]
        );
    }

    #[test]
    fn empty_instance_empty_answer() {
        let (t, _, _) = setup("ab, bc", "ac");
        let empty = Relation::empty(t.attrs().clone());
        assert!(evaluate(&t, &empty).is_empty());
    }

    #[test]
    fn boolean_query_on_nonempty_instance() {
        let (t, _, _) = setup("ab, bc", "");
        let out = evaluate(&t, &instance(&t, &[&[1, 2, 3]]));
        assert_eq!(out, Relation::identity(), "π_∅ of a nonempty join");
    }

    #[test]
    fn cyclic_query_enforces_all_constraints() {
        let (t, _, _) = setup("ab, bc, ac", "abc");
        // Two tuples whose pairwise projections join freely but whose
        // triangle closes only on the original tuples.
        let i = instance(&t, &[&[0, 0, 1], &[1, 0, 0]]);
        let out = evaluate(&t, &i);
        assert_eq!(out, i);
    }

    #[test]
    fn agrees_with_relational_engine() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for (schema, x) in [
            ("ab, bc, cd", "ad"),
            ("ab, bc, ac", "ab"),
            ("abc, cde", "ae"),
            ("abg, bcg, acf, ad, de, ea", "abc"),
        ] {
            let (t, d, xs) = setup(schema, x);
            let u = d.attributes();
            for round in 0..5 {
                let data: Vec<u64> = (0..12 * u.len())
                    .map(|_| rng.random_range(0..4u64))
                    .collect();
                let i = Relation::from_row_major(u.clone(), 12, data);
                let state = gyo_relation::DbState::from_universal(&i, &d);
                let algebraic = state.eval_join_query(&xs);
                let symbolic = evaluate(&t, &i);
                assert_eq!(symbolic, algebraic, "case ({schema}, {x}), round {round}");
            }
        }
    }
}
