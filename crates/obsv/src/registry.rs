//! Per-stage × per-sub-array scoped metric accumulation.

use std::collections::BTreeMap;

use crate::counters::CounterSet;

/// Pipeline stage a scope belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Stage {
    /// Host-side setup: read streaming, row images, table layout.
    #[default]
    Setup,
    /// Stage 1 — in-memory hash-table construction.
    Hashmap,
    /// Stage 2 — de Bruijn graph construction.
    Graph,
    /// Stage 3 — Eulerian traversal.
    Traverse,
    /// Second workload — read mapping (seed filter + DP alignment).
    Mapping,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Setup, Stage::Hashmap, Stage::Graph, Stage::Traverse, Stage::Mapping];

    /// Stable snapshot key fragment for this stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Setup => "setup",
            Stage::Hashmap => "hashmap",
            Stage::Graph => "graph",
            Stage::Traverse => "traverse",
            Stage::Mapping => "mapping",
        }
    }
}

/// Sentinel sub-array index for globally-charged (non-sub-array) traffic.
pub const GLOBAL_SUBARRAY: u32 = u32::MAX;

/// Compact scope key: one pipeline stage × one sub-array (linear index),
/// with [`GLOBAL_SUBARRAY`] marking controller-global traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScopeId {
    /// Stage this scope accumulates under.
    pub stage: Stage,
    /// Linear sub-array index, or [`GLOBAL_SUBARRAY`].
    pub subarray: u32,
}

impl ScopeId {
    /// Scope for one sub-array within `stage`.
    pub fn subarray(stage: Stage, subarray: u32) -> Self {
        Self { stage, subarray }
    }

    /// Controller-global scope for `stage`.
    pub fn global(stage: Stage) -> Self {
        Self { stage, subarray: GLOBAL_SUBARRAY }
    }

    /// Whether this is a controller-global scope.
    pub fn is_global(&self) -> bool {
        self.subarray == GLOBAL_SUBARRAY
    }
}

/// Sparse scoped accumulator: `ScopeId -> CounterSet`.
///
/// The registry is *not* on the hot path: contexts accumulate into inline
/// [`ContextObsv`](crate::ContextObsv) arrays and the controller folds
/// `since`-deltas in at stage boundaries. Sparseness matters because the
/// paper geometry has 32 768 sub-arrays, of which a run touches a handful.
///
/// `fold` and `merge` are commutative integer adds, so merging N shards in
/// any order equals serial accumulation — the property-test target.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    scopes: BTreeMap<ScopeId, CounterSet>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `delta` under `scope`; all-zero deltas are skipped so the
    /// scope map stays sparse.
    pub fn fold(&mut self, scope: ScopeId, delta: &CounterSet) {
        if delta.is_zero() {
            return;
        }
        self.scopes.entry(scope).or_default().merge(delta);
    }

    /// Merges every scope of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (scope, counters) in &other.scopes {
            self.fold(*scope, counters);
        }
    }

    /// Iterates scopes in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&ScopeId, &CounterSet)> {
        self.scopes.iter()
    }

    /// Counters accumulated under `scope`, if any.
    pub fn get(&self, scope: &ScopeId) -> Option<&CounterSet> {
        self.scopes.get(scope)
    }

    /// Sums all scopes of one stage (global + per-sub-array).
    pub fn stage_totals(&self, stage: Stage) -> CounterSet {
        let mut out = CounterSet::new();
        for (scope, counters) in &self.scopes {
            if scope.stage == stage {
                out.merge(counters);
            }
        }
        out
    }

    /// Number of non-empty scopes.
    pub fn len(&self) -> usize {
        self.scopes.len()
    }

    /// Whether no scope has accumulated anything.
    pub fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    /// Drops all accumulated scopes.
    pub fn clear(&mut self) {
        self.scopes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Metric;

    #[test]
    fn fold_skips_zero_deltas_and_accumulates() {
        let mut reg = MetricsRegistry::new();
        reg.fold(ScopeId::global(Stage::Hashmap), &CounterSet::new());
        assert!(reg.is_empty());
        let mut d = CounterSet::new();
        d.add(Metric::Aap2, 4);
        reg.fold(ScopeId::subarray(Stage::Hashmap, 3), &d);
        reg.fold(ScopeId::subarray(Stage::Hashmap, 3), &d);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stage_totals(Stage::Hashmap).get(Metric::Aap2), 8);
    }

    #[test]
    fn merge_order_is_irrelevant() {
        let mut d1 = CounterSet::new();
        d1.add(Metric::AapCopy, 2);
        let mut d2 = CounterSet::new();
        d2.add(Metric::AapCopy, 5);
        d2.add(Metric::DpuOps, 1);

        let mut a = MetricsRegistry::new();
        a.fold(ScopeId::subarray(Stage::Graph, 0), &d1);
        let mut b = MetricsRegistry::new();
        b.fold(ScopeId::subarray(Stage::Graph, 0), &d2);
        b.fold(ScopeId::global(Stage::Graph), &d1);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.stage_totals(Stage::Graph).get(Metric::AapCopy), 9);
    }
}
