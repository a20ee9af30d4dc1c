use fastlive_graph::{NodeId, NO_NODE};

/// Lists of nodes for each of `n` owners, in one array: owner `v`'s list
/// is `items[start[v]..start[v + 1]]`, in the order `pairs` emits its
/// `(owner, item)` pairs. `pairs` runs twice, once to count each list
/// and once to fill it, so building costs two allocations however many
/// owners and items there are.
pub(crate) fn group_by_owner(
    n: usize,
    pairs: impl Fn(&mut dyn FnMut(NodeId, NodeId)),
) -> (Vec<NodeId>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    pairs(&mut |owner, _| start[owner as usize] += 1);
    let mut end = 0;
    for slot in &mut start {
        let count = *slot;
        *slot = end;
        end += count;
    }
    // Filling advances `start[v]` to the end of `v`'s list, which is
    // where `v + 1`'s begins; shifting by one restores the starts.
    let mut items = vec![NO_NODE; end as usize];
    pairs(&mut |owner, item| {
        let slot = &mut start[owner as usize];
        items[*slot as usize] = item;
        *slot += 1;
    });
    start.copy_within(..n, 1);
    start[0] = 0;
    (items, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_emission_order() {
        let pairs = [(2, 7), (0, 5), (2, 3), (2, 9), (0, 1)];
        let (items, start) = group_by_owner(4, |emit| {
            for &(owner, item) in &pairs {
                emit(owner, item);
            }
        });
        assert_eq!(start, [0, 2, 2, 5, 5]);
        assert_eq!(items, [5, 1, 7, 3, 9]);
    }
}
