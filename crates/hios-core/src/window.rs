//! Intra-GPU inter-operator parallelization — the `parallelize()` function
//! shared by HIOS-LP and HIOS-MR (paper Alg. 2).
//!
//! A window slides over each GPU's stage sequence in descending-priority
//! order of the leading operator.  Whenever the operators covered by the
//! window are mutually independent, grouping them into one concurrent
//! stage is evaluated; the grouping is kept only when it strictly lowers
//! the stage-synchronous latency and creates no dependency cycle between
//! stages (the evaluator's topological sort doubles as the loop detection
//! of Alg. 2 line 10, covering the *implicit* cross-GPU loops that merged
//! stages can create).
//!
//! The pass runs on the incremental evaluation engine: candidate windows
//! are priced with [`EvalWorkspace::merged_latency`] (re-relaxing only the
//! stages downstream of the merge, no schedule clone), dependent-operator
//! windows are rejected by a cheap structural pre-check before any
//! evaluation, and operator placements are maintained incrementally
//! across accepted merges instead of being recomputed per operator.  The
//! result is bit-identical to the reference clone-and-reevaluate pass
//! ([`crate::reference::parallelize`]), which the equivalence property
//! tests assert.

use crate::eval::EvalWorkspace;
use crate::priority::priority_order;
use crate::schedule::{OpPlacement, Schedule, Stage};
use hios_cost::CostTable;
use hios_graph::Graph;

/// Runs the sliding-window pass over `sched` and returns the improved
/// schedule with its latency.
///
/// `window` is the maximum number of operators (`w`) a window may cover;
/// values below 2 disable grouping and return the input unchanged (with
/// its evaluated latency).
///
/// # Panics
/// Panics when the input schedule is infeasible for `g`.
pub fn parallelize(g: &Graph, cost: &CostTable, sched: Schedule, window: usize) -> (Schedule, f64) {
    let mut current = sched;
    let mut ws = EvalWorkspace::new();
    let mut latency = ws
        .prepare(g, cost, &current, true)
        .and_then(|()| ws.relax())
        .expect("parallelize() requires a feasible input schedule");
    if window < 2 || g.is_empty() {
        return (current, latency);
    }

    let order = priority_order(g, cost);
    let n = g.num_ops();
    // Placements maintained incrementally across merges (a merge only
    // renumbers stages at or after the window on one GPU).
    let mut place: Vec<OpPlacement> = current
        .placements(n)
        .into_iter()
        .map(|p| p.expect("schedule covers every operator"))
        .collect();
    // Generation-stamped membership of the current window's operators,
    // for the dependent-ops pre-check.
    let mut win_mark = vec![0u32; n];
    let mut win_gen = 0u32;

    for &v in &order {
        let p = place[v.index()];
        // Skip operators already grouped (paper's example: "v4 has been
        // grouped with v2 ... so is skipped").
        if current.gpus[p.gpu].stages[p.stage].ops.len() > 1 {
            continue;
        }

        // Grow the window over succeeding stages while it covers at most
        // `window` operators; keep the best improving candidate.
        let mut best: Option<(usize, f64)> = None;
        let num_stages = current.gpus[p.gpu].stages.len();
        let mut covered = 1usize;
        let mut end = p.stage;
        win_gen += 1;
        win_mark[v.index()] = win_gen;
        'grow: while end + 1 < num_stages {
            end += 1;
            let stage_ops = &current.gpus[p.gpu].stages[end].ops;
            covered += stage_ops.len();
            if covered > window {
                break;
            }
            // Structural pre-check: a dependency between window members
            // makes this window — and every larger one containing it —
            // invalid (DependentOpsInStage), so stop growing without
            // evaluating anything.  Implicit cross-GPU loops are NOT
            // caught here; those can disappear as the window grows
            // further, so they are left to the evaluator's cycle check.
            for &w_op in stage_ops {
                let dependent = g
                    .preds(w_op)
                    .iter()
                    .chain(g.succs(w_op))
                    .any(|u| win_mark[u.index()] == win_gen);
                if dependent {
                    break 'grow;
                }
                win_mark[w_op.index()] = win_gen;
            }
            // Price the candidate incrementally; a circular wait
            // surfaces as Err and rejects just this window size.  The
            // cutoff is the bar this candidate must strictly beat, so
            // pricing may short-circuit any candidate provably at or
            // above it — the acceptance decisions are unchanged.
            let bar = best.map_or(latency, |(_, bl)| bl.min(latency));
            if let Ok(l) = ws.merged_latency_bounded(cost, &current, p.gpu, p.stage, end, bar) {
                if l < latency && best.is_none_or(|(_, bl)| l < bl) {
                    best = Some((end, l));
                    // Keep this candidate's wave around: if it stays the
                    // winner, the commit below applies it directly.
                    ws.snapshot_candidate(p.gpu, p.stage, end, l);
                }
            }
        }
        if let Some((last, l)) = best {
            merge_stages_in_place(&mut current, p.gpu, p.stage, last);
            for (si, stage) in current.gpus[p.gpu].stages.iter().enumerate().skip(p.stage) {
                for (slot, &op) in stage.ops.iter().enumerate() {
                    place[op.index()] = OpPlacement {
                        gpu: p.gpu,
                        stage: si,
                        slot,
                    };
                }
            }
            // Commit by stage-graph surgery instead of re-compiling the
            // whole schedule; the merge was already vetted, and the
            // surgically merged graph relaxes to bit-identical times.
            let relaxed = ws.commit_merge(cost, &current, p.gpu, p.stage, last);
            debug_assert_eq!(relaxed.to_bits(), l.to_bits());
            latency = l;
        }
    }
    (current, latency)
}

/// Merges stages `first..=last` on `gpu` into a single concurrent stage,
/// in place.
fn merge_stages_in_place(sched: &mut Schedule, gpu: usize, first: usize, last: usize) {
    let stages = &mut sched.gpus[gpu].stages;
    let mut merged = Vec::new();
    for stage in stages.drain(first..=last) {
        merged.extend(stage.ops);
    }
    stages.insert(first, Stage::group(merged));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::fixtures::{fig4, fig4_cost, fig4_cost_small_ops};
    use crate::lp::{HiosLpConfig, schedule_hios_lp};
    use crate::schedule::GpuSchedule;
    use hios_cost::{ConcurrencyParams, CostTable};
    use hios_graph::{GraphBuilder, OpId};

    fn merge_stages(sched: &Schedule, gpu: usize, first: usize, last: usize) -> Schedule {
        let mut out = sched.clone();
        merge_stages_in_place(&mut out, gpu, first, last);
        out
    }

    #[test]
    fn merge_stages_is_local() {
        let s = Schedule {
            gpus: vec![GpuSchedule {
                stages: vec![
                    Stage::solo(OpId(0)),
                    Stage::solo(OpId(1)),
                    Stage::solo(OpId(2)),
                ],
            }],
        };
        let m = merge_stages(&s, 0, 1, 2);
        assert_eq!(m.gpus[0].stages.len(), 2);
        assert_eq!(m.gpus[0].stages[1].ops, vec![OpId(1), OpId(2)]);
    }

    #[test]
    fn saturating_ops_stay_sequential() {
        let (g, _) = fig4();
        let cost = fig4_cost(); // util = 1 everywhere
        let input = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2)).schedule;
        let before = evaluate(&g, &cost, &input).unwrap().latency;
        let (out, after) = parallelize(&g, &cost, input, 4);
        assert_eq!(out.max_stage_width(), 1, "no grouping can pay off");
        assert!((after - before).abs() < 1e-9);
    }

    #[test]
    fn small_ops_get_grouped_and_latency_improves() {
        // Paper Fig. 5 behaviour: with small operators the window pass
        // finds profitable groupings on top of the inter-GPU schedule.
        let (g, _) = fig4();
        let cost = fig4_cost_small_ops(); // util = 0.3
        let input = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(1)).schedule;
        let before = evaluate(&g, &cost, &input).unwrap().latency;
        let (out, after) = parallelize(&g, &cost, input, 4);
        assert!(out.validate(&g).is_ok());
        assert!(
            after < before,
            "window pass must improve {before} -> {after}"
        );
        assert!(out.max_stage_width() >= 2);
    }

    #[test]
    fn window_of_one_is_identity() {
        let (g, _) = fig4();
        let cost = fig4_cost_small_ops();
        let input = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(2)).schedule;
        let (out, _) = parallelize(&g, &cost, input.clone(), 1);
        assert_eq!(out, input);
    }

    #[test]
    fn dependent_neighbours_are_never_merged() {
        // A chain a -> b -> c on one GPU: no window is independent.
        let mut b = GraphBuilder::new();
        let a = b.add_synthetic("a", &[]);
        let x = b.add_synthetic("b", &[a]);
        let _c = b.add_synthetic("c", &[x]);
        let g = b.build();
        let cost = CostTable::homogeneous(
            "chain",
            vec![1.0; 3],
            vec![0.1; 3],
            vec![0.1; 3],
            ConcurrencyParams::default(),
            0.0,
        );
        let input = Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(1), OpId(2)]]);
        let (out, lat) = parallelize(&g, &cost, input, 3);
        assert_eq!(out.max_stage_width(), 1);
        assert!((lat - 3.0).abs() < 1e-9);
    }

    #[test]
    fn grouping_respects_cross_gpu_loops() {
        // GPU0: [a][d], GPU1: [b][c], edges a->b? ... Construct the case
        // where merging [a][d] would create a circular wait:
        // edges: a -> c (cross), b -> d (cross). Merged {a,d} must wait
        // for stage [b]; [c] waits for merged; that is fine. Flip: edges
        // a -> b, c -> d? Merged {a,d}: needs c (stage 2 on GPU1), while
        // b (stage 1 on GPU1) needs merged -> cycle via GPU1 chain.
        let mut bld = GraphBuilder::new();
        let a = bld.add_synthetic("a", &[]);
        let _b = bld.add_synthetic("b", &[a]);
        let c = bld.add_synthetic("c", &[]);
        let _d = bld.add_synthetic("d", &[c]);
        let g = bld.build();
        let cost = CostTable::homogeneous(
            "loop",
            vec![1.0; 4],
            vec![0.1; 4],
            vec![0.1; 4],
            ConcurrencyParams::default(),
            0.0,
        );
        // GPU0 runs a then d; GPU1 runs b then c.
        let input = Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(3)], vec![OpId(1), OpId(2)]]);
        assert!(evaluate(&g, &cost, &input).is_ok(), "input is feasible");
        // Merging {a, d} on GPU0 creates: merged needs c's stage; b's
        // stage needs merged; c is after b on GPU1 => circular wait. The
        // pass must reject it (the merged candidate evaluates to Err).
        let merged = merge_stages(&input, 0, 0, 1);
        assert!(evaluate(&g, &cost, &merged).is_err());
        let (out, _) = parallelize(&g, &cost, input, 4);
        assert!(out.validate(&g).is_ok());
        assert!(
            evaluate(&g, &cost, &out).is_ok(),
            "pass output must stay feasible"
        );
    }

    #[test]
    fn output_latency_never_worse_than_input() {
        for seed in 0..5 {
            let g = hios_graph::generate_layered_dag(&hios_graph::LayeredDagConfig {
                ops: 60,
                layers: 6,
                deps: 120,
                seed,
            })
            .unwrap();
            let cost =
                hios_cost::random_cost_table(&g, &hios_cost::RandomCostConfig::paper_default(seed));
            let input = schedule_hios_lp(&g, &cost, HiosLpConfig::inter_only(3)).schedule;
            let before = evaluate(&g, &cost, &input).unwrap().latency;
            let (out, after) = parallelize(&g, &cost, input, 4);
            assert!(after <= before + 1e-9, "seed {seed}: {before} -> {after}");
            assert!(out.validate(&g).is_ok());
            let check = evaluate(&g, &cost, &out).unwrap().latency;
            assert!((check - after).abs() < 1e-9);
        }
    }
}
