//! SM allocation: weighted waterfilling with per-kernel and per-context caps.
//!
//! On every allocation-changing event the engine re-divides the SM pool
//! among runnable kernels. The policy models what the paper relies on
//! (footnote 1: "Volta and later architecture's hardware scheduler provides
//! a simple mechanism to fairly schedule kernels from equal-priority device
//! queues"):
//!
//! 1. The pool's capacity is divided across *contexts*, weighting each
//!    context by its number of runnable kernels and capping it by its MPS
//!    SM-affinity limit (and by what its kernels can actually use).
//! 2. Each context's share is then divided equally across its runnable
//!    kernels, capped by each kernel's own parallelism limit (`max_sms`).
//!
//! Both levels are instances of the classic *weighted waterfill*: item `i`
//! receives `min(cap_i, weight_i · λ)` where the water level `λ` is chosen
//! so the total equals `min(capacity, Σ cap_i)`. Allocations are fractional
//! (fluid model); the engine only ever uses them as progress rates.

/// One item in a waterfill: a weight and an upper cap.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    /// Relative fair-share weight (must be > 0).
    pub weight: f64,
    /// Upper bound on this item's allocation (≥ 0).
    pub cap: f64,
}

/// Divides `capacity` among `demands` by weighted waterfilling.
///
/// Item `i` receives `min(cap_i, weight_i · λ)` with `λ` chosen such that
/// the allocations sum to `min(capacity, Σ cap_i)`. Runs in `O(n log n)`.
///
/// # Panics
///
/// Panics (debug assertions) if any weight is non-positive or any cap is
/// negative or non-finite.
pub fn weighted_waterfill(capacity: f64, demands: &[Demand]) -> Vec<f64> {
    let mut alloc = Vec::new();
    waterfill_into(capacity, demands, &mut alloc, &mut Vec::new());
    alloc
}

/// [`weighted_waterfill`] into `alloc` (cleared first), with `order` as
/// sort scratch; both keep their capacity across calls.
fn waterfill_into(capacity: f64, demands: &[Demand], alloc: &mut Vec<f64>, order: &mut Vec<usize>) {
    debug_assert!(capacity >= 0.0 && capacity.is_finite());
    for d in demands {
        debug_assert!(d.weight > 0.0 && d.weight.is_finite(), "bad weight {d:?}");
        debug_assert!(d.cap >= 0.0 && d.cap.is_finite(), "bad cap {d:?}");
    }
    alloc.clear();
    let n = demands.len();
    if n == 0 {
        return;
    }
    let total_cap: f64 = demands.iter().map(|d| d.cap).sum();
    let target = capacity.min(total_cap);
    if target <= 0.0 {
        alloc.resize(n, 0.0);
        return;
    }
    if total_cap <= capacity {
        // Everyone fits at their cap.
        alloc.extend(demands.iter().map(|d| d.cap));
        return;
    }

    // Sort items by the water level at which they saturate (cap / weight).
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        let ra = demands[a].cap / demands[a].weight;
        let rb = demands[b].cap / demands[b].weight;
        ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
    });

    alloc.resize(n, 0.0);
    let mut remaining = target;
    let mut active_weight: f64 = demands.iter().map(|d| d.weight).sum();
    for (pos, &i) in order.iter().enumerate() {
        let level = remaining / active_weight;
        let sat_level = demands[i].cap / demands[i].weight;
        if sat_level <= level {
            // Item saturates below the current water level: give its cap.
            alloc[i] = demands[i].cap;
            remaining -= demands[i].cap;
            active_weight -= demands[i].weight;
            if remaining <= 0.0 || active_weight <= 0.0 {
                // Numerical residue; everything else gets the level 0.
                for &j in &order[pos + 1..] {
                    alloc[j] = 0.0;
                }
                return;
            }
        } else {
            // All remaining items share the final level proportionally.
            for &j in &order[pos..] {
                alloc[j] = (demands[j].weight * level).min(demands[j].cap);
            }
            return;
        }
    }
}

/// A runnable compute kernel's demand, as seen by the allocator.
#[derive(Clone, Copy, Debug)]
pub struct KernelDemand {
    /// Opaque identifier echoed back in the result (engine slot index).
    pub id: usize,
    /// Index of the context group the kernel belongs to.
    pub ctx_group: usize,
    /// The kernel's own parallelism cap (`max_sms`).
    pub kernel_cap: f64,
}

/// A context group: a set of kernels sharing one SM-affinity limit and one
/// SM pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CtxGroup {
    /// Which pool the context draws from (0 = shared pool; MIG partitions
    /// get their own pools).
    pub pool: usize,
    /// The context's SM-affinity cap (`f64::INFINITY` for unrestricted).
    pub sm_cap: f64,
}

/// Two-level allocation: pools → contexts (weighted by runnable-kernel
/// count, capped by affinity) → kernels (equal shares, capped by
/// `max_sms`).
///
/// `pool_capacity[p]` is the SM capacity of pool `p`. Returns the SM
/// allocation for each entry of `kernels`, in order.
pub fn allocate_sms(
    pool_capacity: &[f64],
    groups: &[CtxGroup],
    kernels: &[KernelDemand],
) -> Vec<f64> {
    let mut alloc = Vec::new();
    allocate_sms_into(
        &mut alloc,
        pool_capacity,
        groups,
        kernels,
        &mut AllocScratch::default(),
    );
    alloc
}

/// Working buffers of [`allocate_sms_into`]. A caller that keeps one
/// across calls makes the allocation allocation-free once the buffers
/// reach their high-water mark.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// Kernel indices bucketed by context group, in kernel order: group
    /// `g` owns `members[start[g]..start[g + 1]]`.
    members: Vec<usize>,
    start: Vec<usize>,
    /// Per-group write cursor while bucketing.
    cursor: Vec<usize>,
    group_ids: Vec<usize>,
    group_demands: Vec<Demand>,
    group_alloc: Vec<f64>,
    kernel_demands: Vec<Demand>,
    kernel_alloc: Vec<f64>,
    order: Vec<usize>,
}

/// Like [`allocate_sms`], but writes into a caller-provided buffer and
/// works in caller-held `scratch`, so a hot caller (the engine's
/// reallocation path) can reuse both across calls instead of
/// heap-allocating on every event.
pub fn allocate_sms_into(
    alloc: &mut Vec<f64>,
    pool_capacity: &[f64],
    groups: &[CtxGroup],
    kernels: &[KernelDemand],
    scratch: &mut AllocScratch,
) {
    alloc.clear();
    alloc.resize(kernels.len(), 0.0);
    if kernels.is_empty() {
        return;
    }
    let AllocScratch {
        members,
        start,
        cursor,
        group_ids,
        group_demands,
        group_alloc,
        kernel_demands,
        kernel_alloc,
        order,
    } = scratch;

    // Bucket kernels by context group, preserving order for determinism
    // (a counting sort).
    start.clear();
    start.resize(groups.len() + 1, 0);
    for k in kernels {
        assert!(k.ctx_group < groups.len(), "unknown context group");
        debug_assert!(
            groups[k.ctx_group].pool < pool_capacity.len(),
            "context group references an unknown pool"
        );
        start[k.ctx_group + 1] += 1;
    }
    for g in 0..groups.len() {
        start[g + 1] += start[g];
    }
    cursor.clear();
    cursor.extend_from_slice(&start[..groups.len()]);
    members.clear();
    members.resize(kernels.len(), 0);
    for (slot, k) in kernels.iter().enumerate() {
        members[cursor[k.ctx_group]] = slot;
        cursor[k.ctx_group] += 1;
    }
    let members_of = |g: usize| &members[start[g]..start[g + 1]];

    for (pool, &capacity) in pool_capacity.iter().enumerate() {
        // Level 1: waterfill this pool's capacity across its non-empty
        // context groups.
        group_ids.clear();
        group_ids.extend(
            (0..groups.len()).filter(|&g| groups[g].pool == pool && !members_of(g).is_empty()),
        );
        if group_ids.is_empty() {
            continue;
        }
        group_demands.clear();
        group_demands.extend(group_ids.iter().map(|&g| {
            let useful: f64 = members_of(g)
                .iter()
                .map(|&slot| kernels[slot].kernel_cap)
                .sum();
            Demand {
                weight: members_of(g).len() as f64,
                cap: useful.min(groups[g].sm_cap),
            }
        }));
        waterfill_into(capacity, group_demands, group_alloc, order);

        // Level 2: waterfill each group's share equally across its kernels.
        for (gi, &g) in group_ids.iter().enumerate() {
            kernel_demands.clear();
            kernel_demands.extend(members_of(g).iter().map(|&slot| Demand {
                weight: 1.0,
                cap: kernels[slot].kernel_cap,
            }));
            waterfill_into(group_alloc[gi], kernel_demands, kernel_alloc, order);
            for (ki, &slot) in members_of(g).iter().enumerate() {
                alloc[slot] = kernel_alloc[ki];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demands(items: &[(f64, f64)]) -> Vec<Demand> {
        items
            .iter()
            .map(|&(weight, cap)| Demand { weight, cap })
            .collect()
    }

    /// The allocating implementation this module shipped before the
    /// scratch-buffer rewrite, kept as a differential twin.
    fn allocate_sms_allocating(
        pool_capacity: &[f64],
        groups: &[CtxGroup],
        kernels: &[KernelDemand],
    ) -> Vec<f64> {
        let mut alloc = vec![0.0; kernels.len()];
        if kernels.is_empty() {
            return alloc;
        }
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        for (slot, k) in kernels.iter().enumerate() {
            members[k.ctx_group].push(slot);
        }
        for (pool, &capacity) in pool_capacity.iter().enumerate() {
            let group_ids: Vec<usize> = (0..groups.len())
                .filter(|&g| groups[g].pool == pool && !members[g].is_empty())
                .collect();
            if group_ids.is_empty() {
                continue;
            }
            let group_demands: Vec<Demand> = group_ids
                .iter()
                .map(|&g| {
                    let useful: f64 = members[g]
                        .iter()
                        .map(|&slot| kernels[slot].kernel_cap)
                        .sum();
                    Demand {
                        weight: members[g].len() as f64,
                        cap: useful.min(groups[g].sm_cap),
                    }
                })
                .collect();
            let group_alloc = weighted_waterfill(capacity, &group_demands);
            for (gi, &g) in group_ids.iter().enumerate() {
                let kernel_demands: Vec<Demand> = members[g]
                    .iter()
                    .map(|&slot| Demand {
                        weight: 1.0,
                        cap: kernels[slot].kernel_cap,
                    })
                    .collect();
                let kalloc = weighted_waterfill(group_alloc[gi], &kernel_demands);
                for (ki, &slot) in members[g].iter().enumerate() {
                    alloc[slot] = kalloc[ki];
                }
            }
        }
        alloc
    }

    #[test]
    fn waterfill_under_capacity_gives_caps() {
        let a = weighted_waterfill(100.0, &demands(&[(1.0, 30.0), (1.0, 40.0)]));
        assert_eq!(a, vec![30.0, 40.0]);
    }

    #[test]
    fn waterfill_splits_equally_without_caps() {
        let a = weighted_waterfill(100.0, &demands(&[(1.0, 1e9), (1.0, 1e9)]));
        assert!((a[0] - 50.0).abs() < 1e-9);
        assert!((a[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_respects_weights() {
        let a = weighted_waterfill(90.0, &demands(&[(1.0, 1e9), (2.0, 1e9)]));
        assert!((a[0] - 30.0).abs() < 1e-9);
        assert!((a[1] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_redistributes_saturated_items() {
        // Item 0 caps at 10; the leftover 90 goes to item 1.
        let a = weighted_waterfill(100.0, &demands(&[(1.0, 10.0), (1.0, 1e9)]));
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_empty_and_zero() {
        assert!(weighted_waterfill(10.0, &[]).is_empty());
        let a = weighted_waterfill(0.0, &demands(&[(1.0, 5.0)]));
        assert_eq!(a, vec![0.0]);
    }

    #[test]
    fn two_level_respects_context_cap() {
        // Context 0 capped at 30 SMs with two greedy kernels; context 1
        // unrestricted with one kernel. Pool of 108.
        let groups = [
            CtxGroup {
                pool: 0,
                sm_cap: 30.0,
            },
            CtxGroup {
                pool: 0,
                sm_cap: f64::INFINITY,
            },
        ];
        let kernels = [
            KernelDemand {
                id: 0,
                ctx_group: 0,
                kernel_cap: 108.0,
            },
            KernelDemand {
                id: 1,
                ctx_group: 0,
                kernel_cap: 108.0,
            },
            KernelDemand {
                id: 2,
                ctx_group: 1,
                kernel_cap: 108.0,
            },
        ];
        let a = allocate_sms(&[108.0], &groups, &kernels);
        assert!((a[0] - 15.0).abs() < 1e-9, "{a:?}");
        assert!((a[1] - 15.0).abs() < 1e-9, "{a:?}");
        assert!((a[2] - 78.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn two_level_fair_across_contexts_by_kernel_count() {
        // Two unrestricted contexts, 1 and 3 kernels: kernels get equal
        // shares (fairness is per kernel, not per context).
        let groups = [
            CtxGroup {
                pool: 0,
                sm_cap: f64::INFINITY,
            },
            CtxGroup {
                pool: 0,
                sm_cap: f64::INFINITY,
            },
        ];
        let kernels = [
            KernelDemand {
                id: 0,
                ctx_group: 0,
                kernel_cap: 1e9,
            },
            KernelDemand {
                id: 1,
                ctx_group: 1,
                kernel_cap: 1e9,
            },
            KernelDemand {
                id: 2,
                ctx_group: 1,
                kernel_cap: 1e9,
            },
            KernelDemand {
                id: 3,
                ctx_group: 1,
                kernel_cap: 1e9,
            },
        ];
        let a = allocate_sms(&[100.0], &groups, &kernels);
        for x in &a {
            assert!((x - 25.0).abs() < 1e-9, "{a:?}");
        }
    }

    #[test]
    fn mig_pools_are_isolated() {
        // Pool 0 (shared, 80 SMs) and pool 1 (MIG, 28 SMs). The MIG kernel
        // cannot spill into the shared pool and vice versa.
        let groups = [
            CtxGroup {
                pool: 0,
                sm_cap: f64::INFINITY,
            },
            CtxGroup {
                pool: 1,
                sm_cap: f64::INFINITY,
            },
        ];
        let kernels = [
            KernelDemand {
                id: 0,
                ctx_group: 0,
                kernel_cap: 1e9,
            },
            KernelDemand {
                id: 1,
                ctx_group: 1,
                kernel_cap: 1e9,
            },
        ];
        let a = allocate_sms(&[80.0, 28.0], &groups, &kernels);
        assert!((a[0] - 80.0).abs() < 1e-9);
        assert!((a[1] - 28.0).abs() < 1e-9);
    }

    #[test]
    fn small_kernel_leaves_room_for_big_one() {
        // A kernel that can only use 10 SMs frees the rest for its peer.
        let groups = [CtxGroup {
            pool: 0,
            sm_cap: f64::INFINITY,
        }];
        let kernels = [
            KernelDemand {
                id: 0,
                ctx_group: 0,
                kernel_cap: 10.0,
            },
            KernelDemand {
                id: 1,
                ctx_group: 0,
                kernel_cap: 108.0,
            },
        ];
        let a = allocate_sms(&[108.0], &groups, &kernels);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 98.0).abs() < 1e-9);
    }

    proptest! {
        /// Waterfill never exceeds capacity or caps, and is work-conserving:
        /// it distributes min(capacity, Σ caps) up to numerical error.
        #[test]
        fn prop_waterfill_sound(
            capacity in 0.0f64..500.0,
            items in proptest::collection::vec((0.1f64..10.0, 0.0f64..200.0), 0..20),
        ) {
            let ds = demands(&items);
            let a = weighted_waterfill(capacity, &ds);
            prop_assert_eq!(a.len(), ds.len());
            let mut total = 0.0;
            for (x, d) in a.iter().zip(&ds) {
                prop_assert!(*x >= -1e-9);
                prop_assert!(*x <= d.cap + 1e-9, "alloc {} over cap {}", x, d.cap);
                total += x;
            }
            let target = capacity.min(ds.iter().map(|d| d.cap).sum::<f64>());
            prop_assert!((total - target).abs() < 1e-6 * (1.0 + target),
                "total {} target {}", total, target);
        }

        /// The scratch-buffer allocator is bit-identical to the allocating
        /// twin, with one scratch reused across calls of different shapes.
        #[test]
        fn prop_scratch_allocation_matches_allocating_twin(
            calls in proptest::collection::vec((
                proptest::collection::vec(1.0f64..120.0, 1..4),
                proptest::collection::vec((0usize..6, 1.0f64..120.0), 0..24),
                proptest::collection::vec(proptest::option::of(1.0f64..120.0), 6),
            ), 1..5),
        ) {
            let mut scratch = AllocScratch::default();
            let mut alloc = vec![7.0];
            for (pools, kernel_specs, ctx_caps) in calls {
                let groups: Vec<CtxGroup> = ctx_caps
                    .iter()
                    .enumerate()
                    .map(|(i, cap)| CtxGroup {
                        pool: i % pools.len(),
                        sm_cap: cap.unwrap_or(f64::INFINITY),
                    })
                    .collect();
                let kernels: Vec<KernelDemand> = kernel_specs
                    .iter()
                    .enumerate()
                    .map(|(id, &(g, cap))| KernelDemand { id, ctx_group: g, kernel_cap: cap })
                    .collect();
                allocate_sms_into(&mut alloc, &pools, &groups, &kernels, &mut scratch);
                let twin = allocate_sms_allocating(&pools, &groups, &kernels);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&alloc), bits(&twin));
            }
        }

        /// Two-level allocation never exceeds pool capacity, context caps,
        /// or kernel caps, and fills each pool as far as demand allows.
        #[test]
        fn prop_allocate_sms_sound(
            seed_caps in proptest::collection::vec(1.0f64..120.0, 1..4),
            kernel_specs in proptest::collection::vec((0usize..6, 1.0f64..120.0), 1..24),
            ctx_caps in proptest::collection::vec(proptest::option::of(1.0f64..120.0), 6),
        ) {
            let n_pools = seed_caps.len();
            let groups: Vec<CtxGroup> = ctx_caps
                .iter()
                .enumerate()
                .map(|(i, cap)| CtxGroup {
                    pool: i % n_pools,
                    sm_cap: cap.unwrap_or(f64::INFINITY),
                })
                .collect();
            let kernels: Vec<KernelDemand> = kernel_specs
                .iter()
                .enumerate()
                .map(|(id, &(g, cap))| KernelDemand { id, ctx_group: g, kernel_cap: cap })
                .collect();
            let a = allocate_sms(&seed_caps, &groups, &kernels);

            // Per-kernel cap.
            for (x, k) in a.iter().zip(&kernels) {
                prop_assert!(*x <= k.kernel_cap + 1e-9);
                prop_assert!(*x >= -1e-9);
            }
            // Per-context cap and per-pool capacity.
            for (g, grp) in groups.iter().enumerate() {
                let used: f64 = a.iter().zip(&kernels)
                    .filter(|(_, k)| k.ctx_group == g)
                    .map(|(x, _)| *x)
                    .sum();
                prop_assert!(used <= grp.sm_cap + 1e-6);
            }
            for (p, &cap) in seed_caps.iter().enumerate() {
                let used: f64 = a.iter().zip(&kernels)
                    .filter(|(_, k)| groups[k.ctx_group].pool == p)
                    .map(|(x, _)| *x)
                    .sum();
                prop_assert!(used <= cap + 1e-6, "pool {} used {} cap {}", p, used, cap);
            }
        }
    }
}
