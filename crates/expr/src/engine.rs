//! The unified pass API: one struct owning the environment, strategy,
//! and budget, fronting every expression pass.
//!
//! [`Engine`] is the only public face of the passes (`simplify`,
//! `prove_*`, `op_count`, `expand`, `pick_cheaper`): downstream code
//! constructs one engine per environment and calls its methods, and
//! switching the simplification machinery is a [`SimplifyStrategy`]
//! knob instead of a call-site rewrite.
//!
//! ```
//! use lego_expr::{Engine, Expr, RangeEnv, SimplifyStrategy};
//!
//! let mut env = RangeEnv::new();
//! env.set_bounds("i", Expr::val(0), Expr::sym("n"));
//! env.set_bounds("j", Expr::val(0), Expr::sym("m"));
//! env.assume_pos("n");
//! env.assume_pos("m");
//!
//! let flat = Expr::sym("i") * Expr::sym("m") + Expr::sym("j");
//! let back = flat.floor_div(&Expr::sym("m"));
//!
//! let eng = Engine::with_env(env);
//! assert_eq!(eng.simplify(&back), Expr::sym("i"));
//!
//! // Equality saturation explores rule orderings the fixpoint rewriter
//! // cannot, and never extracts a costlier form than it:
//! let sat = eng.with_strategy(SimplifyStrategy::Saturate);
//! assert_eq!(sat.simplify(&back), Expr::sym("i"));
//! ```

use crate::cost::{self, CostChoice};
use crate::egraph::{self, SaturationBudget};
use crate::expand::distribute;
use crate::expr::Expr;
use crate::prove;
use crate::range::{NumRange, RangeEnv};
use crate::rules::RuleStats;
use crate::simplify::{fixpoint_simplify, fixpoint_simplify_stats};

/// Which simplification machinery [`Engine::simplify`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimplifyStrategy {
    /// The fixpoint rewriter: Table II rules applied destructively,
    /// bottom-up, in a fixed order until nothing changes. Fast and
    /// deterministic, but the landing form can depend on rule order.
    #[default]
    Rewrite,
    /// Equality saturation: grow an e-graph with the same rule table
    /// (plus the exploratory distribution/factoring identities) under a
    /// [`SaturationBudget`], then extract the globally cheapest form by
    /// op count. Never returns a form costlier than [`Rewrite`]'s
    /// (the graph is seeded with the rewriter's result).
    ///
    /// [`Rewrite`]: SimplifyStrategy::Rewrite
    Saturate,
}

/// The single entry point for expression passes: simplification (by
/// either strategy), proving, range analysis, op counting, expansion,
/// and variant selection — owning the [`RangeEnv`] they are conditioned
/// on.
///
/// Engines are cheap to construct and clone (the environment is the
/// only owned state; all memoization lives in the session-wide arena
/// tables of [`crate::intern`], keyed by environment id, so two engines
/// over equal environments share their memo entries).
#[derive(Clone, Debug, Default)]
pub struct Engine {
    env: RangeEnv,
    strategy: SimplifyStrategy,
    budget: SaturationBudget,
}

impl Engine {
    /// An engine over an empty environment, rewrite strategy, default
    /// budget.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine owning `env`, rewrite strategy, default budget.
    pub fn with_env(env: RangeEnv) -> Engine {
        Engine {
            env,
            ..Engine::default()
        }
    }

    /// This engine with the given simplification strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SimplifyStrategy) -> Engine {
        self.strategy = strategy;
        self
    }

    /// This engine with the given saturation budget (only meaningful
    /// under [`SimplifyStrategy::Saturate`]).
    #[must_use]
    pub fn with_budget(mut self, budget: SaturationBudget) -> Engine {
        self.budget = budget;
        self
    }

    /// Loads the persistent memo sidecar at `path` and installs its
    /// entries into *this thread's* memo tables, so subsequent
    /// [`Engine::simplify`] / [`Engine::op_count`] calls (from any engine —
    /// the tables are shared) hit warm. A missing, stale, or corrupt
    /// sidecar installs nothing; see [`crate::sidecar`] for the
    /// invalidation contract.
    pub fn load_sidecar(path: &std::path::Path) -> crate::sidecar::InstallReport {
        crate::sidecar::Sidecar::load(path).install()
    }

    /// Snapshots this thread's derived results and merges them into the
    /// sidecar at `path` atomically (concurrent savers cannot lose each
    /// other's entries).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_sidecar(path: &std::path::Path) -> std::io::Result<()> {
        crate::sidecar::Sidecar::collect().save(path)
    }

    /// The environment the passes are conditioned on.
    pub fn env(&self) -> &RangeEnv {
        &self.env
    }

    /// Mutable access to the environment (bounds/divisibility updates).
    pub fn env_mut(&mut self) -> &mut RangeEnv {
        &mut self.env
    }

    /// The active simplification strategy.
    pub fn strategy(&self) -> SimplifyStrategy {
        self.strategy
    }

    /// The active saturation budget.
    pub fn budget(&self) -> SaturationBudget {
        self.budget
    }

    /// Simplifies `e` under the active strategy. Results are memoized
    /// per `(environment, node)` for the session — plus the budget for
    /// the saturating strategy.
    pub fn simplify(&self, e: &Expr) -> Expr {
        match self.strategy {
            SimplifyStrategy::Rewrite => fixpoint_simplify(e, &self.env),
            SimplifyStrategy::Saturate => egraph::saturate(e, &self.env, self.budget),
        }
    }

    /// Simplifies `e` and reports which rules fired. Bypasses the
    /// session memo so the stats are a deterministic function of
    /// `(e, env, strategy, budget)`.
    pub fn simplify_with_stats(&self, e: &Expr) -> (Expr, RuleStats) {
        match self.strategy {
            SimplifyStrategy::Rewrite => fixpoint_simplify_stats(e, &self.env),
            SimplifyStrategy::Saturate => egraph::saturate_with_stats(e, &self.env, self.budget),
        }
    }

    /// Proves `e >= 0` (sound, incomplete).
    pub fn prove_nonneg(&self, e: &Expr) -> bool {
        prove::nonneg(e, &self.env)
    }

    /// Proves `e > 0`.
    pub fn prove_pos(&self, e: &Expr) -> bool {
        prove::pos(e, &self.env)
    }

    /// Proves `e != 0`.
    pub fn prove_nonzero(&self, e: &Expr) -> bool {
        prove::nonzero(e, &self.env)
    }

    /// Proves `a < b` (strict).
    pub fn prove_lt(&self, a: &Expr, b: &Expr) -> bool {
        prove::lt(a, b, &self.env)
    }

    /// Proves `a <= b`.
    pub fn prove_le(&self, a: &Expr, b: &Expr) -> bool {
        prove::le(a, b, &self.env)
    }

    /// Proves `0 <= x < d` — the guard of Table II rules 2, 4, and 5.
    pub fn prove_in_half_open(&self, x: &Expr, d: &Expr) -> bool {
        prove::in_half_open(x, d, &self.env)
    }

    /// Proves the divisibility `d | e`, returning the quotient.
    pub fn divide_exact(&self, e: &Expr, d: &Expr) -> Option<Expr> {
        prove::div_exact(e, d, &self.env)
    }

    /// The numeric interval of `e` under the environment's bounds.
    pub fn num_range(&self, e: &Expr) -> NumRange {
        self.env.num_range(e)
    }

    /// Counts arithmetic operations in `e` (environment-free; memoized
    /// per node for the session).
    pub fn op_count(&self, e: &Expr) -> usize {
        cost::ops(e)
    }

    /// Recursively distributes products over sums (environment-free;
    /// memoized per node for the session).
    pub fn expand(&self, e: &Expr) -> Expr {
        distribute(e)
    }

    /// Simplifies `e` both ways — directly, and after full expansion —
    /// under the active strategy, and returns the variant with the
    /// lower operation count (ties prefer the unexpanded form).
    pub fn pick_cheaper(&self, e: &Expr) -> CostChoice {
        let plain = self.simplify(e);
        let expanded = self.simplify(&distribute(e));
        cost::choose(plain, expanded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RewriteRule;

    fn env_tile() -> RangeEnv {
        let mut env = RangeEnv::new();
        env.assume_pos("d");
        env.assume_pos("n");
        env.set_bounds("q", Expr::val(0), Expr::sym("n"));
        env.set_bounds("r", Expr::val(0), Expr::sym("d"));
        env
    }

    #[test]
    fn strategies_agree_on_table2_forms() {
        let env = env_tile();
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let rewrite = Engine::with_env(env.clone());
        let saturate = Engine::with_env(env).with_strategy(SimplifyStrategy::Saturate);
        assert_eq!(rewrite.simplify(&e), Expr::sym("r"));
        assert_eq!(saturate.simplify(&e), Expr::sym("r"));
    }

    #[test]
    fn saturate_never_costlier_than_rewrite() {
        let env = env_tile();
        let exprs = [
            (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).floor_div(&Expr::sym("d")),
            Expr::sym("q") * Expr::sym("d") + Expr::sym("r") * Expr::sym("d"),
            Expr::sym("r").rem(&Expr::sym("d")) + Expr::sym("q"),
        ];
        let rw = Engine::with_env(env.clone());
        let sat = Engine::with_env(env).with_strategy(SimplifyStrategy::Saturate);
        for e in &exprs {
            assert!(sat.op_count(&sat.simplify(e)) <= rw.op_count(&rw.simplify(e)));
        }
    }

    #[test]
    fn rewrite_stats_only_fire_destructive_rules() {
        let env = env_tile();
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let (_, st) = Engine::with_env(env).simplify_with_stats(&e);
        for (rule, n) in st.iter() {
            assert!(n > 0);
            assert!(
                !rule.is_exploratory(),
                "fixpoint rewriter fired exploratory rule {rule:?}"
            );
        }
    }

    #[test]
    fn saturate_stats_stay_within_the_shared_table() {
        let env = RangeEnv::new();
        let e = Expr::sym("a") * Expr::sym("s") + Expr::sym("b") * Expr::sym("s");
        let eng = Engine::with_env(env).with_strategy(SimplifyStrategy::Saturate);
        let (s, st) = eng.simplify_with_stats(&e);
        assert_eq!(s, (Expr::sym("a") + Expr::sym("b")) * Expr::sym("s"));
        assert!(st.count(RewriteRule::Factor) >= 1);
        for (rule, _) in st.iter() {
            assert!(RewriteRule::ALL.contains(&rule));
        }
    }

    #[test]
    fn saturate_results_are_memoized_per_budget() {
        use crate::intern;
        let mut env = RangeEnv::new();
        env.assume_pos("zq_sat_memo_d");
        let e = Expr::sym("zq_sat_memo_x")
            .rem(&Expr::sym("zq_sat_memo_d"))
            .floor_div(&Expr::sym("zq_sat_memo_d"));
        let eng = Engine::with_env(env).with_strategy(SimplifyStrategy::Saturate);
        let first = eng.simplify(&e);
        let before = intern::stats();
        let second = eng.simplify(&e);
        let after = intern::stats();
        assert_eq!(first, second);
        assert!(
            after.saturate_hits > before.saturate_hits,
            "second saturation of the same (env, expr, budget) must hit the memo"
        );
    }
}
