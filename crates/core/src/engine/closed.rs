//! The closed-system task source: one task graph, submitted in program
//! order by the runtime's master thread.

use super::{Engine, EngineScratch, Ev, TaskSource};
use crate::config::RuntimeCosts;
use cata_sim::progress::ExecProfile;
use cata_sim::time::{SimDuration, SimTime};
use cata_tdg::criticality::CriticalityEstimator;
use cata_tdg::{GraphView, TaskGraph, TaskId};

/// One graph run to completion. Each submission costs the master thread
/// creation time plus the estimator's per-visit walk, so a dynamic
/// estimator's overhead delays task availability. Criticality is the
/// estimator's verdict at the moment a task becomes ready.
pub(crate) struct ClosedGraph<'g> {
    graph: &'g TaskGraph,
    costs: RuntimeCosts,
    estimator: Box<dyn CriticalityEstimator>,
    /// The estimator's `classify_level` is the task type's static
    /// annotation (cached once — a ready task's level is then read from
    /// the view's level array instead of a virtual call per task).
    est_static: bool,
    /// SoA snapshot of `graph` (owned via scratch; returned after the run).
    view: GraphView,
    /// Remaining unfinished predecessors per task.
    indegree: Vec<u32>,
    /// Tasks `0..submitted` are visible to the runtime.
    submitted: usize,
    done: usize,
}

impl<'g> ClosedGraph<'g> {
    /// Binds `graph` to the run, reusing the scratch's view and indegree
    /// buffers.
    pub(crate) fn new(
        graph: &'g TaskGraph,
        costs: RuntimeCosts,
        estimator: Box<dyn CriticalityEstimator>,
        scratch: &mut EngineScratch,
    ) -> Self {
        let mut view = std::mem::take(&mut scratch.view);
        view.rebuild(graph);
        let mut indegree = std::mem::take(&mut scratch.indegree);
        indegree.clear();
        indegree.extend_from_slice(view.pred_counts());
        ClosedGraph {
            graph,
            costs,
            est_static: estimator.is_annotation_static(),
            estimator,
            view,
            indegree,
            submitted: 0,
            done: 0,
        }
    }

    /// Cost of submitting `task` on the master thread.
    fn submission_cost(&mut self, task: TaskId) -> SimDuration {
        let visits = self.estimator.on_submit(self.graph, task);
        self.costs.task_creation + self.costs.per_bl_visit.saturating_mul(visits)
    }
}

impl<'g> TaskSource<'g> for ClosedGraph<'g> {
    fn id_space(&self) -> usize {
        self.graph.num_tasks()
    }

    fn first_event(&mut self) -> Option<SimTime> {
        (self.graph.num_tasks() > 0).then(|| SimTime::ZERO + self.submission_cost(TaskId(0)))
    }

    /// The master finished submitting the next task.
    fn on_event(e: &mut Engine<'g, Self>, now: SimTime) {
        let i = e.src.submitted;
        e.src.submitted += 1;
        if e.src.indegree[i] == 0 {
            let task = TaskId(i as u32);
            let level = e.src.level(task);
            e.make_ready(task, level);
        }
        if e.src.submitted < e.src.graph.num_tasks() {
            let cost = e.src.submission_cost(TaskId(e.src.submitted as u32));
            e.events.push(now + cost, Ev::Source);
        }
    }

    fn pending(&self) -> bool {
        self.done < self.graph.num_tasks()
    }

    fn progress(&self) -> String {
        format!(
            "{}/{} tasks done, {} submitted",
            self.done,
            self.graph.num_tasks(),
            self.submitted
        )
    }

    fn profile(&self, task: TaskId) -> &'g ExecProfile {
        &self.graph.task(task).profile
    }

    fn mem_ps(&self, task: TaskId) -> u64 {
        self.view.mem_ps(task)
    }

    fn level(&mut self, task: TaskId) -> u8 {
        // Annotation-static estimators (the `+SA` configurations) equal
        // the view's precomputed level array by definition; dynamic ones
        // (bottom-level) and the always-zero baseline keep the virtual
        // call.
        if self.est_static {
            self.view.crit_level(task)
        } else {
            self.estimator.classify_level(self.graph, task)
        }
    }

    fn release(e: &mut Engine<'g, Self>, task: TaskId, _now: SimTime) {
        e.src.done += 1;
        e.src.estimator.on_complete(e.src.graph, task);
        // Successor walk over the view's CSR arrays: one contiguous span
        // instead of a pointer chase into the task's own `succs` vector.
        // The span is a `Copy` range, so `make_ready` can borrow the
        // engine mutably between element reads.
        for i in e.src.view.succ_span(task) {
            let s = e.src.view.succ_at(i);
            let d = &mut e.src.indegree[s.index()];
            debug_assert!(*d > 0, "indegree underflow at {s}");
            *d -= 1;
            // An unsubmitted successor becomes ready when the master
            // submits it.
            if *d == 0 && s.index() < e.src.submitted {
                let level = e.src.level(s);
                e.make_ready(s, level);
            }
        }
    }

    fn recycle(self, scratch: &mut EngineScratch) {
        scratch.view = self.view;
        scratch.indegree = self.indegree;
    }
}
