//! §6 programs: finite sequences of join, project, and semijoin statements.
//!
//! A program `P` maps a database schema and state to an extended schema and
//! state: each statement creates a new relation. `P(D)` denotes the schema
//! part (original relation schemas plus the created ones) — the input to
//! the tree-projection theorems 6.1–6.4. `P` *solves* `(D, X)` if on every
//! UR database for `D` the last statement's value is the query answer.
//!
//! [`Program::execute`] keeps the §6 new-relation semantics (every
//! statement materializes, through the columnar operator kernels); the
//! overwrite-in-place reading of all-semijoin programs — where no
//! intermediate materializes at all — is
//! [`gyo_relation::semijoin_program`], which the cached full-reducer
//! engine executes over reusable selection vectors.

use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, Catalog, DbSchema};

use crate::query::JoinQuery;

/// A reference to a relation in a program's relation space: indices
/// `0..base.len()` are the original relations, later indices are created by
/// statements in order.
pub type RelRef = usize;

/// One program statement (§6). Each statement assigns a *new* relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Statement {
    /// `R_k := R_i ⋈ R_j`.
    Join {
        /// Left operand.
        left: RelRef,
        /// Right operand.
        right: RelRef,
    },
    /// `R_k := π_Y(R_i)`.
    Project {
        /// Source relation.
        src: RelRef,
        /// Projection target `Y ⊆ schema(src)`.
        onto: AttrSet,
    },
    /// `R_k := R_i ⋉ R_j`.
    Semijoin {
        /// Left operand (whose schema the result keeps).
        left: RelRef,
        /// Right operand.
        right: RelRef,
    },
}

/// A §6 program over a base schema.
///
/// # Examples
///
/// ```
/// use gyo_schema::{AttrSet, Catalog, DbSchema};
/// use gyo_query::Program;
///
/// let mut cat = Catalog::alphabetic();
/// let d = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
/// let mut p = Program::new(d);
/// let abc = p.join(0, 1);   // ab ⋈ bc
/// let acd = p.join(2, 3);   // cd ⋈ da
/// let top = p.join(abc, acd);
/// let _ans = p.project(top, AttrSet::parse("ac", &mut cat).unwrap());
/// assert_eq!(p.p_of_d().len(), 4 + 4); // base + 4 created relations
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    base: DbSchema,
    stmts: Vec<Statement>,
    schemas: Vec<AttrSet>,
}

impl Program {
    /// An empty program over `base`.
    pub fn new(base: DbSchema) -> Self {
        let schemas = base.iter().cloned().collect();
        Self {
            base,
            stmts: Vec::new(),
            schemas,
        }
    }

    /// The base schema `D`.
    #[inline]
    pub fn base(&self) -> &DbSchema {
        &self.base
    }

    /// The statements, in order.
    #[inline]
    pub fn statements(&self) -> &[Statement] {
        &self.stmts
    }

    /// Number of statements.
    #[inline]
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// The schema of relation `r` (base or created).
    #[inline]
    pub fn schema_of(&self, r: RelRef) -> &AttrSet {
        &self.schemas[r]
    }

    /// Appends `R_k := R_i ⋈ R_j`; returns `k`.
    pub fn join(&mut self, left: RelRef, right: RelRef) -> RelRef {
        let schema = self.schemas[left].union(&self.schemas[right]);
        self.stmts.push(Statement::Join { left, right });
        self.schemas.push(schema);
        self.schemas.len() - 1
    }

    /// Appends `R_k := π_onto(R_src)`; returns `k`.
    ///
    /// # Panics
    ///
    /// Panics if `onto ⊄ schema(src)`.
    pub fn project(&mut self, src: RelRef, onto: AttrSet) -> RelRef {
        assert!(
            onto.is_subset(&self.schemas[src]),
            "projection target must be a subset of the source schema"
        );
        self.stmts.push(Statement::Project {
            src,
            onto: onto.clone(),
        });
        self.schemas.push(onto);
        self.schemas.len() - 1
    }

    /// Appends `R_k := R_i ⋉ R_j`; returns `k`.
    pub fn semijoin(&mut self, left: RelRef, right: RelRef) -> RelRef {
        let schema = self.schemas[left].clone();
        self.stmts.push(Statement::Semijoin { left, right });
        self.schemas.push(schema);
        self.schemas.len() - 1
    }

    /// The schema mapping `P(D)`: the base relation schemas plus every
    /// created relation schema, as a database schema (§6).
    pub fn p_of_d(&self) -> DbSchema {
        DbSchema::new(self.schemas.clone())
    }

    /// Executes the program on a state for the base schema, returning the
    /// full relation space (originals + created).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match the base schema.
    pub fn execute(&self, state: &DbState) -> Vec<Relation> {
        self.execute_each(state, |_| {})
    }

    /// Executes with per-statement cost accounting: tuple counts of the
    /// operands and of the result — the proxy Bernstein–Chiu use for
    /// communication cost when semijoins are shipped between sites.
    pub fn execute_with_stats(&self, state: &DbState) -> (Vec<Relation>, Vec<StatementStats>) {
        let mut stats = Vec::with_capacity(self.stmts.len());
        let rels = self.execute_each(state, |s| stats.push(s));
        (rels, stats)
    }

    /// The one execution loop: runs every statement in order and hands
    /// each one's tuple counts to `seen`.
    fn execute_each(&self, state: &DbState, mut seen: impl FnMut(StatementStats)) -> Vec<Relation> {
        assert_eq!(state.len(), self.base.len(), "state/schema mismatch");
        let mut rels: Vec<Relation> = state.rels().to_vec();
        rels.reserve(self.stmts.len());
        for stmt in &self.stmts {
            let (next, input_tuples) = match stmt {
                Statement::Join { left, right } => (
                    rels[*left].natural_join(&rels[*right]),
                    rels[*left].len() + rels[*right].len(),
                ),
                Statement::Project { src, onto } => (rels[*src].project(onto), rels[*src].len()),
                Statement::Semijoin { left, right } => (
                    rels[*left].semijoin(&rels[*right]),
                    rels[*left].len() + rels[*right].len(),
                ),
            };
            seen(StatementStats {
                input_tuples,
                output_tuples: next.len(),
            });
            rels.push(next);
        }
        rels
    }

    /// Executes and returns the value of the last statement (the program's
    /// output, per §6).
    ///
    /// # Panics
    ///
    /// Panics if the program has no statements.
    pub fn run(&self, state: &DbState) -> Relation {
        assert!(!self.stmts.is_empty(), "program has no statements");
        self.execute(state)
            .pop()
            .expect("execute returns base + created relations")
    }

    /// Whether `P` computes the answer of `(D, X)` on this particular
    /// state.
    pub fn solves_on(&self, state: &DbState, q: &JoinQuery) -> bool {
        self.run(state) == q.eval(state)
    }

    /// Empirical refutation of "P solves (D, X)": evaluates on the frozen
    /// canonical instance of `(D, X)` and on `tries` random UR states,
    /// returning a counterexample universal relation if any disagrees.
    pub fn find_counterexample<R: rand::Rng + ?Sized>(
        &self,
        q: &JoinQuery,
        rng: &mut R,
        tries: usize,
        rows: usize,
        domain: u64,
    ) -> Option<Relation> {
        let frozen = gyo_tableau::Tableau::standard(q.schema(), q.target()).freeze();
        let canonical = frozen.to_relation();
        let state = DbState::from_universal(&canonical, q.schema());
        if !self.solves_on(&state, q) {
            return Some(canonical);
        }
        for _ in 0..tries {
            let i =
                gyo_workloads_shim::random_universal(rng, &q.schema().attributes(), rows, domain);
            let state = DbState::from_universal(&i, q.schema());
            if !self.solves_on(&state, q) {
                return Some(i);
            }
        }
        None
    }

    /// Renders the program in the paper's assignment notation.
    pub fn to_notation(&self, cat: &Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let n = self.base.len();
        for (k, stmt) in self.stmts.iter().enumerate() {
            let target = n + k;
            match stmt {
                Statement::Join { left, right } => writeln!(
                    out,
                    "R{} := R{} ⋈ R{}   -- {}",
                    target,
                    left,
                    right,
                    self.schemas[target].to_notation(cat)
                ),
                Statement::Project { src, onto } => {
                    writeln!(out, "R{} := π_{}(R{})", target, onto.to_notation(cat), src)
                }
                Statement::Semijoin { left, right } => writeln!(
                    out,
                    "R{} := R{} ⋉ R{}   -- {}",
                    target,
                    left,
                    right,
                    self.schemas[target].to_notation(cat)
                ),
            }
            .expect("write to string");
        }
        out
    }
}

/// Per-statement execution statistics; see
/// [`Program::execute_with_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatementStats {
    /// Total tuples read by the statement (sum over operands).
    pub input_tuples: usize,
    /// Tuples in the created relation.
    pub output_tuples: usize,
}

/// A tiny internal shim so `Program::find_counterexample` does not force a
/// public dependency from `gyo-query` onto the workloads crate: random
/// universal relations are generated inline.
mod gyo_workloads_shim {
    use gyo_relation::Relation;
    use gyo_schema::AttrSet;
    use rand::Rng;

    pub fn random_universal<R: Rng + ?Sized>(
        rng: &mut R,
        attrs: &AttrSet,
        rows: usize,
        domain: u64,
    ) -> Relation {
        let width = attrs.len();
        let data: Vec<u64> = (0..rows * width)
            .map(|_| rng.random_range(0..domain))
            .collect();
        Relation::from_row_major(attrs.clone(), rows, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DbSchema, AttrSet, Catalog) {
        let mut cat = Catalog::alphabetic();
        let d = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        (d, x, cat)
    }

    #[test]
    fn join_all_then_project_solves() {
        let (d, x, _) = setup();
        let mut p = Program::new(d.clone());
        let j1 = p.join(0, 1);
        let j2 = p.join(j1, 2);
        let j3 = p.join(j2, 3);
        p.project(j3, x.clone());
        let q = JoinQuery::new(d.clone(), x);

        let mut rng = StdRng::seed_from_u64(31);
        assert!(p.find_counterexample(&q, &mut rng, 20, 30, 4).is_none());
    }

    #[test]
    fn partial_join_fails_on_rings() {
        // Joining only three of the four ring relations does not solve
        // (ring, ac): the missing da constraint shows up on some instance.
        let (d, x, _) = setup();
        let mut p = Program::new(d.clone());
        let j1 = p.join(0, 1);
        let j2 = p.join(j1, 2);
        p.project(j2, x.clone());
        let q = JoinQuery::new(d.clone(), x);
        let mut rng = StdRng::seed_from_u64(32);
        let cex = p.find_counterexample(&q, &mut rng, 50, 30, 3);
        assert!(cex.is_some(), "the ring needs all four relations");
    }

    #[test]
    fn p_of_d_tracks_created_schemas() {
        let (d, x, mut cat) = setup();
        let mut p = Program::new(d);
        let j1 = p.join(0, 1);
        assert_eq!(p.schema_of(j1), &AttrSet::parse("abc", &mut cat).unwrap());
        let pr = p.project(j1, x.clone());
        assert_eq!(p.schema_of(pr), &x);
        let sj = p.semijoin(2, pr);
        assert_eq!(
            p.schema_of(sj),
            &AttrSet::parse("cd", &mut cat).unwrap(),
            "semijoin keeps the left schema"
        );
        assert_eq!(p.p_of_d().len(), 4 + 3);
    }

    #[test]
    fn execute_matches_engine_semantics() {
        let (d, _, mut cat) = setup();
        let u = d.attributes();
        let i = Relation::new(
            u,
            vec![vec![1, 2, 3, 4], vec![1, 2, 3, 5], vec![9, 2, 3, 4]],
        );
        let state = DbState::from_universal(&i, &d);
        let mut p = Program::new(d);
        let j = p.join(0, 1);
        let s = p.semijoin(2, j);
        let onto = AttrSet::parse("c", &mut cat).unwrap();
        p.project(s, onto);
        let rels = p.execute(&state);
        assert_eq!(rels[j], state.rel(0).natural_join(state.rel(1)));
        assert_eq!(rels[s], state.rel(2).semijoin(&rels[j]));
        assert_eq!(p.run(&state), rels.last().unwrap().clone());
    }

    #[test]
    fn stats_track_sizes() {
        let (d, x, _) = setup();
        let u = d.attributes();
        let i = Relation::new(u, vec![vec![1, 2, 3, 4], vec![1, 2, 3, 5]]);
        let state = DbState::from_universal(&i, &d);
        let mut p = Program::new(d);
        let j = p.join(0, 1);
        p.project(j, x);
        let (rels, stats) = p.execute_with_stats(&state);
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats[0].input_tuples,
            state.rel(0).len() + state.rel(1).len()
        );
        assert_eq!(stats[0].output_tuples, rels[4].len());
        assert_eq!(stats[1].output_tuples, rels[5].len());
        // plain execute agrees
        assert_eq!(p.execute(&state), rels);
    }

    #[test]
    #[should_panic(expected = "no statements")]
    fn empty_program_has_no_output() {
        let (d, _, _) = setup();
        let state =
            DbState::from_universal(&Relation::new(d.attributes(), vec![vec![1, 2, 3, 4]]), &d);
        Program::new(d).run(&state);
    }

    #[test]
    fn notation_rendering() {
        let (d, x, cat) = setup();
        let mut p = Program::new(d);
        let j = p.join(0, 1);
        p.project(j, x);
        let s = p.to_notation(&cat);
        assert!(s.contains("R4 := R0 ⋈ R1"), "{s}");
        assert!(s.contains("R5 := π_ac(R4)"), "{s}");
    }
}
