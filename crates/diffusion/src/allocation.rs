//! Seed allocations `𝒮 ⊆ V × I` (§3.2.1 of the paper).
//!
//! An allocation maps seed nodes to the itemsets they are seeded with,
//! subject to per-item budgets: item `i` may be assigned to at most `b_i`
//! nodes. [`Allocation`] stores the node→itemset view (what the UIC
//! simulator consumes) and offers the item→nodes view (what seed-selection
//! algorithms produce).

use uic_graph::NodeId;
use uic_items::ItemSet;
use uic_util::FxHashMap;

/// A seed allocation: a set of `(node, item)` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    per_node: FxHashMap<NodeId, ItemSet>,
}

impl Allocation {
    /// The empty allocation.
    pub fn new() -> Allocation {
        Allocation::default()
    }

    /// Builds from per-item seed lists: `item_seeds[i]` are the seed nodes
    /// of item `i` (the output shape of bundleGRD and all baselines).
    pub fn from_item_seeds(item_seeds: &[Vec<NodeId>]) -> Allocation {
        let mut a = Allocation::new();
        for (i, seeds) in item_seeds.iter().enumerate() {
            for &v in seeds {
                a.assign(v, i as u32);
            }
        }
        a
    }

    /// bundleGRD's assignment (Algorithm 1): item `i` gets the first
    /// `budgets[i]` nodes of one shared `order` (all of it when the budget
    /// exceeds its length). `budgets` need not be sorted.
    pub fn from_prefixes(order: &[NodeId], budgets: &[u32]) -> Allocation {
        let mut a = Allocation::new();
        for (i, &b) in budgets.iter().enumerate() {
            for &v in &order[..(b as usize).min(order.len())] {
                a.assign(v, i as u32);
            }
        }
        a
    }

    /// Adds the pair `(v, item)`.
    pub fn assign(&mut self, v: NodeId, item: u32) {
        let entry = self.per_node.entry(v).or_insert(ItemSet::EMPTY);
        *entry = entry.with(item);
    }

    /// Adds `(v, i)` for every `i ∈ items`.
    pub fn assign_set(&mut self, v: NodeId, items: ItemSet) {
        if items.is_empty() {
            return;
        }
        let entry = self.per_node.entry(v).or_insert(ItemSet::EMPTY);
        *entry = entry.union(items);
    }

    /// Itemset allocated to `v` (`I_v^𝒮`); empty if `v` is not a seed.
    pub fn items_of(&self, v: NodeId) -> ItemSet {
        self.per_node.get(&v).copied().unwrap_or(ItemSet::EMPTY)
    }

    /// All seed nodes `S^𝒮` with their itemsets, in unspecified order.
    pub fn seeds(&self) -> impl Iterator<Item = (NodeId, ItemSet)> + '_ {
        self.per_node.iter().map(|(&v, &s)| (v, s))
    }

    /// Seed nodes of a specific item (`S_i^𝒮`), sorted by node id.
    pub fn seeds_of_item(&self, item: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .per_node
            .iter()
            .filter(|(_, s)| s.contains(item))
            .map(|(&v, _)| v)
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of distinct seed nodes.
    pub fn num_seed_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Total number of `(node, item)` pairs.
    pub fn num_pairs(&self) -> usize {
        self.per_node.values().map(|s| s.len() as usize).sum()
    }

    /// Count of seeds per item, sized by `num_items`.
    pub fn budgets_used(&self, num_items: u32) -> Vec<u32> {
        let mut used = vec![0u32; num_items as usize];
        for s in self.per_node.values() {
            for i in s.iter() {
                used[i as usize] += 1;
            }
        }
        used
    }

    /// Checks the budget constraint `|S_i^𝒮| ≤ b_i` for every item.
    pub fn respects_budgets(&self, budgets: &[u32]) -> bool {
        let used = self.budgets_used(budgets.len() as u32);
        used.iter().zip(budgets).all(|(&u, &b)| u <= b)
    }

    /// Union of this allocation with another (used to form `𝒮 ∪ {(v,i)}`
    /// style composites in tests of monotonicity).
    pub fn union(&self, other: &Allocation) -> Allocation {
        let mut out = self.clone();
        for (v, s) in other.seeds() {
            out.assign_set(v, s);
        }
        out
    }

    /// True when no pairs are allocated.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_query() {
        let mut a = Allocation::new();
        a.assign(5, 0);
        a.assign(5, 2);
        a.assign(9, 0);
        assert_eq!(a.items_of(5), ItemSet::from_items(&[0, 2]));
        assert_eq!(a.items_of(9), ItemSet::singleton(0));
        assert_eq!(a.items_of(1), ItemSet::EMPTY);
        assert_eq!(a.num_seed_nodes(), 2);
        assert_eq!(a.num_pairs(), 3);
    }

    #[test]
    fn from_item_seeds_inverts_to_seeds_of_item() {
        let a = Allocation::from_item_seeds(&[vec![1, 2, 3], vec![2, 4]]);
        assert_eq!(a.seeds_of_item(0), vec![1, 2, 3]);
        assert_eq!(a.seeds_of_item(1), vec![2, 4]);
        assert_eq!(a.items_of(2), ItemSet::from_items(&[0, 1]));
    }

    #[test]
    fn from_prefixes_gives_each_item_its_budget_prefix() {
        let a = Allocation::from_prefixes(&[7, 3, 5], &[1, 3, 5, 0]);
        assert_eq!(a.seeds_of_item(0), vec![7]);
        assert_eq!(a.seeds_of_item(1), vec![3, 5, 7]);
        // Budgets past the ordering's end take all of it.
        assert_eq!(a.seeds_of_item(2), vec![3, 5, 7]);
        assert!(a.seeds_of_item(3).is_empty());
        assert_eq!(a.items_of(7), ItemSet::from_items(&[0, 1, 2]));
    }

    #[test]
    fn budgets_used_and_validation() {
        let a = Allocation::from_item_seeds(&[vec![1, 2], vec![3]]);
        assert_eq!(a.budgets_used(2), vec![2, 1]);
        assert!(a.respects_budgets(&[2, 1]));
        assert!(a.respects_budgets(&[5, 5]));
        assert!(!a.respects_budgets(&[1, 1]));
    }

    #[test]
    fn duplicate_assignment_is_idempotent() {
        let mut a = Allocation::new();
        a.assign(1, 0);
        a.assign(1, 0);
        assert_eq!(a.num_pairs(), 1);
        assert_eq!(a.budgets_used(1), vec![1]);
    }

    #[test]
    fn union_merges() {
        let a = Allocation::from_item_seeds(&[vec![1], vec![]]);
        let b = Allocation::from_item_seeds(&[vec![2], vec![1]]);
        let u = a.union(&b);
        assert_eq!(u.items_of(1), ItemSet::from_items(&[0, 1]));
        assert_eq!(u.items_of(2), ItemSet::singleton(0));
        assert_eq!(u.num_pairs(), 3);
    }

    #[test]
    fn assign_empty_set_is_noop() {
        let mut a = Allocation::new();
        a.assign_set(3, ItemSet::EMPTY);
        assert!(a.is_empty());
    }
}
