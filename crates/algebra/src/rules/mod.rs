//! The rewrite-rule framework and rule sets.
//!
//! Mirrors Algebricks' design: the framework applies a *rule set* to a
//! logical plan until fixpoint; the language above supplies the rules.
//! The paper's contribution is three JSONiq rule families (§4), each
//! individually toggleable here so the ablation experiments (Figs. 13–15)
//! can measure them separately:
//!
//! | family | rules |
//! |---|---|
//! | base (always on) | [`base::RemoveDeadAssign`], [`base::PushSelectIntoJoin`] |
//! | path expression | [`path::EliminatePromoteData`], [`path::MergeKeysOrMembersIntoUnnest`] |
//! | pipelining | [`pipelining::IntroduceDataScan`], [`pipelining::PushValueIntoDataScan`], [`pipelining::PushKeysOrMembersIntoDataScan`] |
//! | group-by | [`groupby::RemoveTreat`], [`groupby::ConvertScalarAggregateToSubplan`], [`groupby::PushSubplanAggregateIntoGroupBy`] |
//!
//! Two-step aggregation (the rule "introduced in \[17\]" that the group-by
//! family activates) is a physical-planning decision; [`RuleConfig`]
//! carries the flag and the job compiler honours it.

pub mod base;
pub mod groupby;
pub mod path;
pub mod pipelining;

use crate::plan::{LogicalOp, LogicalPlan, VarId};
use std::collections::HashMap;

/// A rewrite rule: attempts to transform the plan, returns whether it did.
pub trait Rule: Send + Sync {
    /// Stable rule name (reported by the optimizer for tests/EXPLAIN).
    fn name(&self) -> &'static str;
    /// Apply anywhere in the plan; `true` if the plan changed.
    fn apply(&self, plan: &mut LogicalPlan) -> bool;
}

/// Which rule families to enable — the experiment knob of Figs. 13–16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleConfig {
    /// §4.1 path expression rules.
    pub path_rules: bool,
    /// §4.2 pipelining rules (requires nothing, but the paper layers it on
    /// path rules; enabling it alone is allowed and still sound).
    pub pipelining_rules: bool,
    /// §4.3 group-by rules.
    pub group_by_rules: bool,
    /// Two-step (local/global) aggregation at the physical level.
    pub two_step_aggregation: bool,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig::all()
    }
}

impl RuleConfig {
    /// Everything on (the shipping configuration).
    pub fn all() -> Self {
        RuleConfig {
            path_rules: true,
            pipelining_rules: true,
            group_by_rules: true,
            two_step_aggregation: true,
        }
    }

    /// Everything off (the paper's "before" baseline).
    pub fn none() -> Self {
        RuleConfig {
            path_rules: false,
            pipelining_rules: false,
            group_by_rules: false,
            two_step_aggregation: false,
        }
    }

    /// Path rules only (Fig. 13's "after").
    pub fn path_only() -> Self {
        RuleConfig {
            path_rules: true,
            ..RuleConfig::none()
        }
    }

    /// Path + pipelining (Fig. 14's "after").
    pub fn path_and_pipelining() -> Self {
        RuleConfig {
            path_rules: true,
            pipelining_rules: true,
            ..RuleConfig::none()
        }
    }
}

/// An ordered collection of rules applied to fixpoint.
pub struct RuleSet {
    rules: Vec<Box<dyn Rule>>,
}

impl RuleSet {
    /// A custom rule list (base rules are *not* implied). Used by the
    /// AsterixDB baseline, which shares this infrastructure but lacks the
    /// JSONiq pipelining pushdowns (paper §5.3).
    pub fn custom(rules: Vec<Box<dyn Rule>>) -> Self {
        RuleSet { rules }
    }

    /// Build the rule set for a configuration. Base rules are always
    /// included (they are Algebricks' built-ins, not the contribution).
    pub fn for_config(config: RuleConfig) -> Self {
        let mut rules: Vec<Box<dyn Rule>> = vec![
            Box::new(base::PushSelectIntoJoin),
            Box::new(base::RemoveDeadAssign),
        ];
        if config.path_rules {
            rules.push(Box::new(path::EliminatePromoteData));
            rules.push(Box::new(path::MergeKeysOrMembersIntoUnnest));
        }
        if config.pipelining_rules {
            rules.push(Box::new(pipelining::IntroduceDataScan));
            rules.push(Box::<pipelining::PushValueIntoDataScan>::default());
            rules.push(Box::<pipelining::PushKeysOrMembersIntoDataScan>::default());
            rules.push(Box::new(pipelining::PushIterateValueChainIntoDataScan));
        }
        if config.group_by_rules {
            rules.push(Box::new(groupby::RemoveTreat));
            rules.push(Box::new(groupby::ConvertScalarAggregateToSubplan));
            rules.push(Box::new(groupby::PushSubplanAggregateIntoGroupBy));
        }
        RuleSet { rules }
    }

    /// Run all rules to fixpoint; returns the names of applications in
    /// order (a rule appears once per successful application round).
    pub fn optimize(&self, plan: &mut LogicalPlan) -> Vec<&'static str> {
        self.optimize_traced(plan)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    /// Like [`RuleSet::optimize`], but returns one [`RuleFiring`] per
    /// successful application, carrying timing and plan-size deltas for
    /// the tracing layer.
    pub fn optimize_traced(&self, plan: &mut LogicalPlan) -> Vec<RuleFiring> {
        let mut applied = Vec::new();
        // Fixpoint with a generous safety cap: every rule strictly shrinks
        // the plan or pushes work down, so this terminates long before.
        for round in 0..100 {
            let mut changed = false;
            for rule in &self.rules {
                loop {
                    let nodes_before = plan_size(plan);
                    let start = std::time::Instant::now();
                    let fired = rule.apply(plan);
                    let duration = start.elapsed();
                    if !fired {
                        break;
                    }
                    applied.push(RuleFiring {
                        rule: rule.name(),
                        round,
                        duration,
                        nodes_before,
                        nodes_after: plan_size(plan),
                    });
                    changed = true;
                }
            }
            if !changed {
                return applied;
            }
        }
        applied
    }
}

/// One successful rule application, as observed by
/// [`RuleSet::optimize_traced`].
#[derive(Debug, Clone)]
pub struct RuleFiring {
    /// [`Rule::name`] of the rule that fired.
    pub rule: &'static str,
    /// Fixpoint round in which it fired.
    pub round: usize,
    /// Wall time of the successful `apply` call.
    pub duration: std::time::Duration,
    /// Plan size (operator count) before the application…
    pub nodes_before: usize,
    /// …and after.
    pub nodes_after: usize,
}

/// Number of operators in the plan (the size metric in rule firings).
pub fn plan_size(plan: &LogicalPlan) -> usize {
    let mut n = 0;
    plan.root.visit(&mut |_| n += 1);
    n
}

/// Count references to every variable in the whole plan's expressions.
pub(crate) fn var_use_counts(root: &LogicalOp) -> HashMap<VarId, usize> {
    let mut counts = HashMap::new();
    root.visit(&mut |op| {
        for e in op.exprs() {
            let mut vars = Vec::new();
            e.collect_vars(&mut vars);
            for v in vars {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
    });
    counts
}

/// Apply `f` at every node (bottom-up). `f` may replace the node in place;
/// returns true if any call returned true.
pub(crate) fn transform_bottom_up(
    op: &mut LogicalOp,
    f: &mut impl FnMut(&mut LogicalOp) -> bool,
) -> bool {
    let mut changed = false;
    for c in op.children_mut() {
        changed |= transform_bottom_up(c, f);
    }
    changed | f(op)
}

/// Detach an operator, leaving a placeholder leaf. Used by rules that
/// need to take ownership of a subtree before rebuilding it.
pub(crate) fn take_op(slot: &mut LogicalOp) -> LogicalOp {
    std::mem::replace(slot, LogicalOp::EmptyTupleSource)
}
