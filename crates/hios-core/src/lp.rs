//! HIOS-LP inter-GPU operator parallelization (paper Alg. 1):
//! iteratively extract the longest *valid* path from the unscheduled
//! subgraph `G'` and map it wholesale onto the GPU that minimizes the
//! latency of everything scheduled so far.

use crate::dense::{DenseContext, NO_GPU};
use crate::eval::{ListState, evaluate};
use crate::par::{LP_PAR_MIN_OPS, map_candidates};
use crate::priority::priorities;
use crate::schedule::Schedule;
use crate::window::parallelize;
use hios_cost::CostTable;
use hios_graph::paths::priority_order;
use hios_graph::{Graph, OpId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of HIOS-LP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HiosLpConfig {
    /// GPU budget `M`.
    pub num_gpus: usize,
    /// Maximum sliding-window size `w` of the intra-GPU pass (Alg. 2).
    pub window: usize,
    /// Run the intra-GPU pass; `false` gives the "inter-GPU w/ LP"
    /// ablation of §V-B.
    pub intra: bool,
}

impl HiosLpConfig {
    /// Full HIOS-LP on `m` GPUs with the default window of 4.
    pub fn new(m: usize) -> Self {
        HiosLpConfig {
            num_gpus: m,
            window: 4,
            intra: true,
        }
    }

    /// The inter-GPU-only ablation ("inter-GPU w/ LP").
    pub fn inter_only(m: usize) -> Self {
        HiosLpConfig {
            intra: false,
            ..Self::new(m)
        }
    }
}

/// Finds the longest valid path in the unscheduled subgraph (Alg. 1
/// line 5).
///
/// A path candidate lives on unscheduled vertices; its *intermediate*
/// vertices must have no edge to or from any scheduled vertex, while its
/// first and last vertex may (their heaviest such boundary edge weight is
/// counted into the path length, like the paper's `P2 = {e2, v3, e4, v5,
/// e6}` which includes the boundary edges `e2` and `e6`).  Path length
/// sums vertex weights `t(v)` and edge weights `t(u, v)` — the worst-case
/// accounting where adjacent path vertices could land on different GPUs.
///
/// Runs in O(|V| + |E|) per call via a memoized DP in reverse topological
/// order (tighter than the paper's O(|V|²·|E|) bound).
pub fn longest_valid_path(
    g: &Graph,
    cost: &CostTable,
    reverse_topo: &[OpId],
    scheduled: &[bool],
) -> Vec<OpId> {
    let ctx = DenseContext::build(g, cost, 1);
    let mut scratch = PathScratch::new(g.num_ops());
    let reverse_topo: Vec<u32> = reverse_topo.iter().map(|v| v.0).collect();
    let mut path = Vec::new();
    longest_valid_path_dense(&mut scratch, &ctx, &reverse_topo, scheduled, &mut path);
    path.into_iter().map(OpId).collect()
}

/// Reusable buffers of the longest-valid-path DP, pooled across the
/// extraction rounds of one [`schedule_hios_lp`] run.
/// Pooled per-trial scratch: list state, placement map, touch stamps,
/// and the touch generation counter, recycled across HIOS-LP steps.
type TrialScratch = (ListState, Vec<u32>, Vec<u32>, u32);

/// One fanned-out trial: the candidate GPU index plus its scratch.
type GpuTrial = (u32, ListState, Vec<u32>, Vec<u32>, u32);

#[derive(Clone, Debug, Default)]
struct PathScratch {
    head_ext: Vec<f64>,
    tail_ext: Vec<f64>,
    free: Vec<bool>, // unscheduled and no scheduled neighbour
    f_val: Vec<f64>,
    next: Vec<u32>,
}

impl PathScratch {
    fn new(n: usize) -> Self {
        PathScratch {
            head_ext: vec![0.0; n],
            tail_ext: vec![0.0; n],
            free: vec![true; n],
            f_val: vec![0.0; n],
            next: vec![u32::MAX; n],
        }
    }
}

/// [`longest_valid_path`] over dense indices and reusable scratch — the
/// per-round workhorse of [`schedule_hios_lp`].  Identical DP, identical
/// tie-breaks; the dense arrays hold the exact [`CostTable`] values.
fn longest_valid_path_dense(
    scratch: &mut PathScratch,
    ctx: &DenseContext,
    reverse_topo: &[u32],
    scheduled: &[bool],
    path: &mut Vec<u32>,
) {
    let n = ctx.num_ops();
    debug_assert_eq!(scheduled.len(), n);
    path.clear();

    // Boundary classification + extension weights.
    let head_ext = &mut scratch.head_ext;
    let tail_ext = &mut scratch.tail_ext;
    let free = &mut scratch.free;
    for v in 0..n {
        head_ext[v] = 0.0;
        tail_ext[v] = 0.0;
        free[v] = true;
        if scheduled[v] {
            continue;
        }
        for &u in ctx.preds(v as u32) {
            if scheduled[u as usize] {
                free[v] = false;
                head_ext[v] = head_ext[v].max(ctx.transfer_worst(u));
            }
        }
        for &w in ctx.succs(v as u32) {
            if scheduled[w as usize] {
                free[v] = false;
                tail_ext[v] = tail_ext[v].max(ctx.transfer_worst(v as u32));
            }
        }
    }

    // F(v): best path value starting at v (continuing only through free
    // vertices, allowed to end at a boundary vertex).  C(w) is the value
    // contributed by stepping into w.
    let f_val = &mut scratch.f_val;
    let next = &mut scratch.next;
    for &v in reverse_topo {
        let vi = v as usize;
        if scheduled[vi] {
            continue;
        }
        let mut best = tail_ext[vi];
        let mut choice = u32::MAX;
        for &w in ctx.succs(v) {
            let wi = w as usize;
            if scheduled[wi] {
                continue;
            }
            // Stepping into a free vertex continues the path; stepping
            // into a boundary vertex ends it there (with its tail edge).
            let into_w = if free[wi] {
                f_val[wi]
            } else {
                ctx.exec_worst(w) + tail_ext[wi]
            };
            let c = ctx.transfer_worst(v) + into_w;
            if c > best {
                best = c;
                choice = w;
            }
        }
        f_val[vi] = ctx.exec_worst(v) + best;
        next[vi] = choice;
    }

    // Best start vertex: any unscheduled vertex, head extension included.
    let mut start = u32::MAX;
    let mut best_score = f64::NEG_INFINITY;
    for v in 0..n {
        if scheduled[v] {
            continue;
        }
        let score = head_ext[v] + f_val[v];
        if score > best_score {
            best_score = score;
            start = v as u32;
        }
    }
    if start == u32::MAX {
        return;
    }

    // Reconstruct, stopping after the first boundary vertex reached.
    path.push(start);
    let mut v = start;
    loop {
        let w = next[v as usize];
        if w == u32::MAX {
            break;
        }
        path.push(w);
        if !free[w as usize] {
            break;
        }
        v = w;
    }
}

/// Outcome of an inter-GPU scheduling pass.
#[derive(Clone, Debug)]
pub struct LpOutcome {
    /// The schedule (singleton stages after the inter-GPU phase; possibly
    /// grouped stages after the intra-GPU phase).
    pub schedule: Schedule,
    /// Stage-synchronous latency of [`LpOutcome::schedule`], ms.
    pub latency: f64,
    /// GPU assignment per operator.
    pub gpu_of: Vec<u32>,
    /// The longest-path groups in extraction order (diagnostics).
    pub paths: Vec<Vec<OpId>>,
}

/// Runs HIOS-LP (Alg. 1, optionally followed by Alg. 2).
///
/// # Panics
/// Panics when `cfg.num_gpus == 0` or the cost table does not match `g`.
pub fn schedule_hios_lp(g: &Graph, cost: &CostTable, cfg: HiosLpConfig) -> LpOutcome {
    assert!(cfg.num_gpus >= 1, "need at least one GPU");
    assert_eq!(cost.num_ops(), g.num_ops(), "cost table mismatch");
    let n = g.num_ops();
    if n == 0 {
        return LpOutcome {
            schedule: Schedule::empty(cfg.num_gpus),
            latency: 0.0,
            gpu_of: Vec::new(),
            paths: Vec::new(),
        };
    }

    let prio = priorities(g, cost);
    let order = priority_order(g, &prio);
    let ctx = DenseContext::build(g, cost, cfg.num_gpus);
    let order_u32: Vec<u32> = order.iter().map(|v| v.0).collect();
    let reverse_topo: Vec<u32> = order_u32.iter().rev().copied().collect();
    // Position of each operator in the priority order.
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }

    let mut scheduled = vec![false; n];
    let mut committed: Vec<u32> = vec![NO_GPU; n];
    let mut remaining = n;
    let mut paths: Vec<Vec<OpId>> = Vec::new();

    // Candidate-search state.  The committed operators' full list
    // schedule is kept as a value (`base`, the previous round's winning
    // trial); each of the M trials of one path re-derives "base plus the
    // path on GPU i" *incrementally* via ListState::replay_incremental,
    // re-placing only the operators that provably could differ from
    // `base` (everything on the path's GPU from the first path operator
    // on, plus the downstream closure of any operator whose finish time
    // actually changed).  The result is bit-identical to list-scheduling
    // each trial from scratch.  Trials stay independent (pooled
    // state/placement/stamp buffers) and can run in parallel; a shared
    // atomic latency bound lets a trial abort once it is *strictly*
    // worse than a finished competitor — strict comparison keeps the
    // lowest-GPU-index tie-break exact and an aborted trial reports
    // +inf, which never wins under `<`.
    let mut base = ListState::new(n, cfg.num_gpus);
    let mut trial_states: Vec<ListState> = (0..cfg.num_gpus)
        .map(|_| ListState::new(n, cfg.num_gpus))
        .collect();
    let mut trial_places: Vec<Vec<u32>> = (0..cfg.num_gpus).map(|_| vec![NO_GPU; n]).collect();
    let mut trial_touch: Vec<Vec<u32>> = (0..cfg.num_gpus).map(|_| vec![0u32; n]).collect();
    let mut trial_gens: Vec<u32> = vec![0; cfg.num_gpus];
    let mut scratch = PathScratch::new(n);
    let mut path: Vec<u32> = Vec::new();
    let bound = AtomicU64::new(f64::INFINITY.to_bits());
    let fan_out = cfg.num_gpus >= 2 && n >= LP_PAR_MIN_OPS;

    // Committed execution time per GPU, used only to order the trials so
    // the likely winner runs first and tightens the shared bound; the
    // winner is still the latency-minimal trial with ties to the lowest
    // GPU index, whatever the order.
    let mut gpu_load = vec![0.0f64; cfg.num_gpus];
    let mut trial_order: Vec<u32> = (0..cfg.num_gpus as u32).collect();

    while remaining > 0 {
        longest_valid_path_dense(&mut scratch, &ctx, &reverse_topo, &scheduled, &mut path);
        debug_assert!(!path.is_empty());
        let mut cut = n;
        for &v in &path {
            scheduled[v as usize] = true;
            cut = cut.min(pos[v as usize]);
        }
        remaining -= path.len();

        // Try the whole path on every GPU, keep the best (Alg. 1 lines
        // 8-16); ties go to the lowest GPU index, so the first path lands
        // on GPU 1 "due to the homogeneity of GPUs".  Operators ordered
        // before the cut cannot be affected by any trial; their makespan
        // contribution is folded in up front (f64::max ignores the NaN
        // finishes of still-unscheduled operators).
        let mut lat0 = 0.0f64;
        for &v in &order_u32[..cut] {
            lat0 = lat0.max(base.op_finish(v));
        }
        let tail = &order_u32[cut..];
        let committed_ref = &committed;
        let path_ref = &path;
        let ctx_ref = &ctx;
        let base_ref = &base;
        let bound_ref = &bound;
        let pos_ref: &[usize] = &pos;
        bound.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        trial_order.sort_unstable_by(|&x, &y| {
            gpu_load[x as usize]
                .partial_cmp(&gpu_load[y as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        let mut pool: Vec<TrialScratch> = trial_states
            .drain(..)
            .zip(trial_places.drain(..))
            .zip(trial_touch.drain(..))
            .zip(trial_gens.drain(..))
            .map(|(((st, pl), tc), gen)| (st, pl, tc, gen))
            .collect();
        let trials: Vec<GpuTrial> = trial_order
            .iter()
            .map(|&gi| {
                let (st, pl, tc, gen) = pool.pop().expect("one pooled state per GPU");
                (gi, st, pl, tc, gen)
            })
            .collect();
        let results = map_candidates(trials, fan_out, move |(gi, mut st, mut pl, mut tc, gen)| {
            let gen = gen.wrapping_add(1);
            let gen = if gen == 0 {
                tc.fill(0);
                1
            } else {
                gen
            };
            pl.copy_from_slice(committed_ref);
            for &v in path_ref {
                pl[v as usize] = gi;
            }
            let done = st.replay_incremental(
                ctx_ref,
                base_ref,
                tail,
                pos_ref,
                &pl,
                lat0,
                &mut tc,
                gen,
                || f64::from_bits(bound_ref.load(Ordering::Relaxed)),
            );
            let lat = if done {
                bound_ref.fetch_min(st.latency().to_bits(), Ordering::Relaxed);
                st.latency()
            } else {
                f64::INFINITY
            };
            (gi, lat, st, pl, tc, gen)
        });
        let mut best_latency = f64::INFINITY;
        let mut best_gpu = u32::MAX;
        for &(gi, latency, ..) in &results {
            if latency < best_latency || (latency == best_latency && gi < best_gpu) {
                best_latency = latency;
                best_gpu = gi;
            }
        }
        // The winning trial *is* the new committed schedule: swap it in
        // as the next round's base and recycle the old base's buffers.
        for (gi, _lat, mut st, pl, tc, gen) in results {
            if gi == best_gpu {
                std::mem::swap(&mut base, &mut st);
            }
            trial_states.push(st);
            trial_places.push(pl);
            trial_touch.push(tc);
            trial_gens.push(gen);
        }
        for &v in &path {
            committed[v as usize] = best_gpu;
            gpu_load[best_gpu as usize] += ctx.exec(best_gpu as usize, v);
        }
        paths.push(path.iter().map(|&v| OpId(v)).collect());
    }

    let schedule = Schedule::from_gpu_orders(base.into_result().gpu_order);
    let latency = evaluate(g, cost, &schedule)
        .expect("inter-GPU schedule is feasible by construction")
        .latency;
    let gpu_of = committed;

    if cfg.intra {
        let (schedule, latency) = parallelize(g, cost, schedule, cfg.window);
        LpOutcome {
            schedule,
            latency,
            gpu_of,
            paths,
        }
    } else {
        LpOutcome {
            schedule,
            latency,
            gpu_of,
            paths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig4, fig4_cost};
    use crate::seq::schedule_sequential;

    #[test]
    fn fig4_longest_path_extraction_order() {
        // Reproduces the Fig. 4 narrative: P1 = v1,v2,v4,v6,v8;
        // P2 = v3,v5 (v3->v5->v7 invalid: v5 feeds the mapped v6);
        // P3 = v7.
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2));
        let as_idx: Vec<Vec<u32>> = out
            .paths
            .iter()
            .map(|p| p.iter().map(|v| v.0).collect())
            .collect();
        assert_eq!(as_idx, vec![vec![0, 1, 3, 5, 7], vec![2, 4], vec![6]]);
    }

    #[test]
    fn fig4_gpu_mapping_and_latency() {
        // P1 -> GPU 0; P2 and P3 -> GPU 1; end-to-end latency 13
        // (hand-derived for the fixture weights; the paper's own weights
        // yield 16 with the same structure).
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2));
        assert_eq!(out.gpu_of, vec![0, 0, 1, 0, 1, 0, 1, 0]);
        assert!((out.latency - 13.0).abs() < 1e-9, "got {}", out.latency);
        assert!(out.schedule.validate(&g).is_ok());
    }

    #[test]
    fn single_gpu_lp_equals_sequential() {
        // With M = 1 every path lands on GPU 0 and execution is fully
        // sequential: latency must equal the sequential baseline.
        let (g, _) = fig4();
        let cost = fig4_cost();
        let out = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(1));
        let seq = crate::eval::evaluate(&g, &cost, &schedule_sequential(&g, &cost))
            .unwrap()
            .latency;
        assert!((out.latency - seq).abs() < 1e-9);
    }

    #[test]
    fn more_gpus_never_hurt_fig4() {
        let (g, _) = fig4();
        let cost = fig4_cost();
        let l1 = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(1)).latency;
        let l2 = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2)).latency;
        let l4 = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(4)).latency;
        assert!(l2 <= l1);
        assert!(l4 <= l2 + 1e-9);
    }

    #[test]
    fn paths_partition_the_graph() {
        let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
            ops: 80,
            layers: 8,
            deps: 160,
            seed: 5,
        })
        .unwrap();
        let cost = hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(5));
        let out = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(4));
        let mut seen = vec![false; g.num_ops()];
        for p in &out.paths {
            for &v in p {
                assert!(!seen[v.index()], "{v} extracted twice");
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "paths must cover the graph");
        assert!(out.schedule.validate(&g).is_ok());
    }

    #[test]
    fn first_path_is_the_critical_path() {
        let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
            ops: 60,
            layers: 10,
            deps: 120,
            seed: 9,
        })
        .unwrap();
        let cost = hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(9));
        let out = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2));
        let (_, cp) = hios_graph::paths::critical_path(
            &g,
            |v| cost.exec_worst(v),
            |u, _v| cost.transfer_worst(u),
        );
        assert_eq!(out.paths[0], cp);
    }

    #[test]
    fn empty_graph() {
        let g = hios_graph::GraphBuilder::new().build();
        let cost = hios_cost::CostTable::homogeneous(
            "empty",
            vec![],
            vec![],
            vec![],
            Default::default(),
            0.0,
        );
        let out = schedule_hios_lp(&g, &cost, HiosLpConfig::new(2));
        assert_eq!(out.latency, 0.0);
    }
}

#[cfg(test)]
mod brute_force_tests {
    use super::*;
    use hios_cost::{RandomCostConfig, random_cost_table};
    use hios_graph::{GraphBuilder, LayeredDagConfig, generate_layered_dag};

    /// Enumerates every valid path in the unscheduled subgraph and
    /// returns the best score (head extension + vertex/edge weights +
    /// tail extension), mirroring the DP's definition.
    fn brute_force_best(g: &hios_graph::Graph, cost: &CostTable, scheduled: &[bool]) -> f64 {
        let n = g.num_ops();
        let free = |v: OpId| -> bool {
            !scheduled[v.index()]
                && g.preds(v).iter().all(|u| !scheduled[u.index()])
                && g.succs(v).iter().all(|w| !scheduled[w.index()])
        };
        let head_ext = |v: OpId| -> f64 {
            g.preds(v)
                .iter()
                .filter(|u| scheduled[u.index()])
                .map(|&u| cost.transfer_worst(u))
                .fold(0.0, f64::max)
        };
        let tail_ext = |v: OpId| -> f64 {
            g.succs(v)
                .iter()
                .filter(|w| scheduled[w.index()])
                .map(|&_w| cost.transfer_worst(v))
                .fold(0.0, f64::max)
        };
        // DFS over all paths: extend only through free intermediates.
        #[allow(clippy::too_many_arguments)]
        fn extend(
            g: &hios_graph::Graph,
            cost: &CostTable,
            scheduled: &[bool],
            free: &dyn Fn(OpId) -> bool,
            tail_ext: &dyn Fn(OpId) -> f64,
            v: OpId,
            acc: f64,
            best: &mut f64,
        ) {
            // End the path here.
            *best = (*best).max(acc + tail_ext(v));
            if !free(v) && acc > 0.0 {
                // A boundary vertex reached mid-path terminates it; as a
                // start vertex (acc == its own weight) it may continue,
                // which the caller models by calling extend directly.
            }
            for &w in g.succs(v) {
                if scheduled[w.index()] {
                    continue;
                }
                // w may be intermediate only if free; otherwise it ends
                // the path right there.
                let a = acc + cost.transfer_worst(v) + cost.exec_worst(w);
                if free(w) {
                    extend(g, cost, scheduled, free, tail_ext, w, a, best);
                } else {
                    *best = (*best).max(a + tail_ext(w));
                }
            }
        }
        let mut best = f64::NEG_INFINITY;
        for i in 0..n {
            let v = OpId::from_index(i);
            if scheduled[i] {
                continue;
            }
            extend(
                g,
                cost,
                scheduled,
                &free,
                &tail_ext,
                v,
                head_ext(v) + cost.exec_worst(v),
                &mut best,
            );
        }
        best
    }

    fn path_score(
        g: &hios_graph::Graph,
        cost: &CostTable,
        scheduled: &[bool],
        path: &[OpId],
    ) -> f64 {
        let head = g
            .preds(path[0])
            .iter()
            .filter(|u| scheduled[u.index()])
            .map(|&u| cost.transfer_worst(u))
            .fold(0.0, f64::max);
        let tail = g
            .succs(*path.last().unwrap())
            .iter()
            .filter(|w| scheduled[w.index()])
            .map(|&_w| cost.transfer_worst(*path.last().unwrap()))
            .fold(0.0, f64::max);
        let mut score = head + tail;
        for (i, &v) in path.iter().enumerate() {
            score += cost.exec_worst(v);
            if i + 1 < path.len() {
                score += cost.transfer_worst(v);
            }
        }
        score
    }

    #[test]
    fn dp_matches_brute_force_across_extraction_rounds() {
        for seed in 0..8 {
            let g = generate_layered_dag(&LayeredDagConfig {
                ops: 14,
                layers: 4,
                deps: 24,
                seed,
            })
            .unwrap();
            let cost = random_cost_table(&g, &RandomCostConfig::paper_default(seed));
            let order = crate::priority::priority_order(&g, &cost);
            let reverse_topo: Vec<OpId> = order.iter().rev().copied().collect();
            let mut scheduled = vec![false; g.num_ops()];
            // Drive several extraction rounds like Alg. 1 does.
            for round in 0..4 {
                if scheduled.iter().all(|&s| s) {
                    break;
                }
                let path = longest_valid_path(&g, &cost, &reverse_topo, &scheduled);
                assert!(!path.is_empty());
                let dp_score = path_score(&g, &cost, &scheduled, &path);
                let brute = brute_force_best(&g, &cost, &scheduled);
                assert!(
                    (dp_score - brute).abs() < 1e-9,
                    "seed {seed} round {round}: DP {dp_score} vs brute force {brute}"
                );
                for &v in &path {
                    scheduled[v.index()] = true;
                }
            }
        }
    }

    #[test]
    fn extracted_path_is_connected_and_valid() {
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let c = b.add_synthetic("c", &[a]);
        let d = b.add_synthetic("d", &[c]);
        let _e = b.add_synthetic("e", &[d]);
        let g = b.build();
        let cost = random_cost_table(&g, &RandomCostConfig::paper_default(0));
        let order = crate::priority::priority_order(&g, &cost);
        let reverse_topo: Vec<OpId> = order.iter().rev().copied().collect();
        let scheduled = vec![false; 4];
        let path = longest_valid_path(&g, &cost, &reverse_topo, &scheduled);
        assert_eq!(path.len(), 4, "a chain is one long path");
        for w in path.windows(2) {
            assert!(
                g.has_edge(w[0], w[1]),
                "consecutive path ops must be adjacent"
            );
        }
    }
}
