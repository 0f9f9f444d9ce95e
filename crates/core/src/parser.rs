//! Runtime DAG parsing (paper §IV-E, Fig. 8).
//!
//! Parsing is incremental topological sorting: the parser tracks each
//! sub-task's remaining prefix degree, exposes the set of currently
//! *computable* sub-tasks (no unfinished predecessors), and, when a sub-task
//! completes, "removes the vertex and its connecting edges", which may make
//! successors computable. It also supports *failing* a running sub-task back
//! to computable, which is what the FT sweep does on timeout.

use crate::dag::{TaskDag, VertexId};
use crate::error::ParseError;

/// Lifecycle of a sub-task during parsing (Fig. 8's white / grey / black
/// vertices, plus the running state in between).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Still has unfinished predecessors.
    Blocked,
    /// All predecessors finished; sitting in the computable sub-task stack.
    Computable,
    /// Handed to a worker; registered in the overtime queue.
    Running,
    /// Finished; vertex and edges removed from the DAG.
    Finished,
}

/// Incremental topological parser over a [`TaskDag`].
///
/// The *computable sub-task stack* is LIFO, like the paper's linked-list
/// stack: the most recently enabled sub-task is handed out first, which
/// keeps the working set warm along the active wavefront.
#[derive(Clone, Debug)]
pub struct DagParser {
    remaining_preds: Vec<u32>,
    state: Vec<TaskState>,
    computable: Vec<VertexId>,
    finished: usize,
    running: usize,
    total: usize,
}

impl DagParser {
    /// Initialize the parser: every source vertex becomes computable.
    pub fn new(dag: &TaskDag) -> Self {
        let total = dag.len();
        let mut remaining_preds = Vec::with_capacity(total);
        let mut state = Vec::with_capacity(total);
        let mut computable = Vec::new();
        for (id, v) in dag.iter() {
            remaining_preds.push(v.preds.len() as u32);
            if v.preds.is_empty() {
                state.push(TaskState::Computable);
                computable.push(id);
            } else {
                state.push(TaskState::Blocked);
            }
        }
        // Deterministic initial order: sources pop lowest-id first.
        computable.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            remaining_preds,
            state,
            computable,
            finished: 0,
            running: 0,
            total,
        }
    }

    /// Current state of a vertex.
    pub fn state(&self, v: VertexId) -> TaskState {
        self.state[v.index()]
    }

    /// Number of sub-tasks currently in the computable stack.
    pub fn computable_len(&self) -> usize {
        self.computable.len()
    }

    /// Number of finished sub-tasks.
    pub fn finished_len(&self) -> usize {
        self.finished
    }

    /// Number of sub-tasks currently running.
    pub fn running_len(&self) -> usize {
        self.running
    }

    /// True when every sub-task has finished — the parsing process has
    /// removed all vertices and edges.
    pub fn is_done(&self) -> bool {
        self.finished == self.total
    }

    /// Pop the next computable sub-task and mark it running. Returns `None`
    /// when the stack is empty (which does *not* imply [`Self::is_done`]:
    /// tasks may still be blocked or running).
    pub fn pop_computable(&mut self) -> Option<VertexId> {
        let v = self.computable.pop()?;
        debug_assert_eq!(self.state[v.index()], TaskState::Computable);
        self.state[v.index()] = TaskState::Running;
        self.running += 1;
        Some(v)
    }

    /// Peek at the next computable sub-task without claiming it.
    pub fn peek_computable(&self) -> Option<VertexId> {
        self.computable.last().copied()
    }

    /// Pop the most recently enabled computable sub-task satisfying `pred`
    /// and mark it running. Static schedulers (block-cyclic wavefront) use
    /// this to claim only the sub-tasks owned by a particular worker.
    pub fn pop_computable_matching(&mut self, pred: impl Fn(VertexId) -> bool) -> Option<VertexId> {
        let idx = self.computable.iter().rposition(|&v| pred(v))?;
        let v = self.computable.remove(idx);
        debug_assert_eq!(self.state[v.index()], TaskState::Computable);
        self.state[v.index()] = TaskState::Running;
        self.running += 1;
        Some(v)
    }

    /// Mark a running sub-task finished; newly computable successors are
    /// pushed onto the stack and also appended to `newly` if provided.
    pub fn complete(
        &mut self,
        dag: &TaskDag,
        v: VertexId,
        mut newly: Option<&mut Vec<VertexId>>,
    ) -> Result<(), ParseError> {
        self.check_id(v)?;
        if self.state[v.index()] != TaskState::Running {
            return Err(ParseError::NotRunning {
                vertex: dag.vertex(v).pos,
            });
        }
        self.state[v.index()] = TaskState::Finished;
        self.running -= 1;
        self.finished += 1;
        for &s in &dag.vertex(v).succs {
            let r = &mut self.remaining_preds[s.index()];
            debug_assert!(*r > 0);
            *r -= 1;
            if *r == 0 {
                debug_assert_eq!(self.state[s.index()], TaskState::Blocked);
                self.state[s.index()] = TaskState::Computable;
                self.computable.push(s);
                if let Some(out) = newly.as_deref_mut() {
                    out.push(s);
                }
            }
        }
        Ok(())
    }

    /// Return a running sub-task to the computable stack (fault tolerance:
    /// the worker timed out or died; the sub-task will be redistributed).
    pub fn fail(&mut self, dag: &TaskDag, v: VertexId) -> Result<(), ParseError> {
        self.check_id(v)?;
        if self.state[v.index()] != TaskState::Running {
            return Err(ParseError::NotRunning {
                vertex: dag.vertex(v).pos,
            });
        }
        self.state[v.index()] = TaskState::Computable;
        self.running -= 1;
        self.computable.push(v);
        Ok(())
    }

    fn check_id(&self, v: VertexId) -> Result<(), ParseError> {
        if v.index() >= self.total {
            return Err(ParseError::UnknownVertex { id: v.0 });
        }
        Ok(())
    }

    /// Drain the whole DAG in a single thread, calling `run` on each
    /// sub-task in a valid topological order. Convenience for sequential
    /// execution and tests.
    pub fn drain_sequential(dag: &TaskDag, mut run: impl FnMut(VertexId)) {
        let mut parser = DagParser::new(dag);
        while let Some(v) = parser.pop_computable() {
            run(v);
            parser
                .complete(dag, v, None)
                .expect("sequential drain completes what it popped");
        }
        assert!(
            parser.is_done(),
            "DAG with blocked tasks but empty frontier is cyclic"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::GridDims;
    use crate::patterns::{TriangularGap, Wavefront2D};

    #[test]
    fn initial_frontier_is_sources() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::square(3)));
        let parser = DagParser::new(&dag);
        assert_eq!(parser.computable_len(), 1);
        assert!(!parser.is_done());
    }

    #[test]
    fn drain_visits_every_vertex_once_in_topo_order() {
        let dag = TaskDag::from_pattern(&TriangularGap::new(6));
        let mut seen = vec![false; dag.len()];
        let mut count = 0;
        DagParser::drain_sequential(&dag, |v| {
            assert!(!seen[v.index()], "vertex visited twice");
            // All preds must have been seen.
            for p in &dag.vertex(v).preds {
                assert!(seen[p.index()], "pred not finished before successor ran");
            }
            seen[v.index()] = true;
            count += 1;
        });
        assert_eq!(count, dag.len());
    }

    #[test]
    fn complete_unblocks_successors() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)));
        let mut parser = DagParser::new(&dag);
        let v00 = parser.pop_computable().unwrap();
        assert_eq!(parser.pop_computable(), None, "only one source");
        let mut newly = Vec::new();
        parser.complete(&dag, v00, Some(&mut newly)).unwrap();
        assert_eq!(newly.len(), 2, "(0,1) and (1,0) become computable");
        assert_eq!(parser.computable_len(), 2);
    }

    #[test]
    fn completing_non_running_task_errors() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)));
        let mut parser = DagParser::new(&dag);
        let v = parser.peek_computable().unwrap();
        // Not yet popped -> not running.
        assert!(parser.complete(&dag, v, None).is_err());
        let v = parser.pop_computable().unwrap();
        parser.complete(&dag, v, None).unwrap();
        // Double completion.
        assert!(parser.complete(&dag, v, None).is_err());
    }

    #[test]
    fn fail_requeues_task() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 2)));
        let mut parser = DagParser::new(&dag);
        let v = parser.pop_computable().unwrap();
        assert_eq!(parser.running_len(), 1);
        parser.fail(&dag, v).unwrap();
        assert_eq!(parser.running_len(), 0);
        assert_eq!(parser.state(v), TaskState::Computable);
        // The task can be claimed and completed again.
        let v2 = parser.pop_computable().unwrap();
        assert_eq!(v, v2);
        parser.complete(&dag, v2, None).unwrap();
        assert_eq!(parser.finished_len(), 1);
    }

    #[test]
    fn fail_of_finished_task_errors() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(1, 2)));
        let mut parser = DagParser::new(&dag);
        let v = parser.pop_computable().unwrap();
        parser.complete(&dag, v, None).unwrap();
        assert!(parser.fail(&dag, v).is_err());
    }

    #[test]
    fn is_done_only_after_all_complete() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(2, 3)));
        let mut parser = DagParser::new(&dag);
        let mut done = 0;
        while let Some(v) = parser.pop_computable() {
            assert!(!parser.is_done());
            parser.complete(&dag, v, None).unwrap();
            done += 1;
        }
        assert_eq!(done, 6);
        assert!(parser.is_done());
    }

    #[test]
    fn pop_matching_claims_only_predicate_tasks() {
        let dag = TaskDag::from_pattern(&TriangularGap::new(4));
        let mut parser = DagParser::new(&dag);
        // Four diagonal sources; claim only even-column ones.
        let picked = parser.pop_computable_matching(|v| dag.vertex(v).pos.col.is_multiple_of(2));
        let v = picked.expect("even-column source exists");
        assert_eq!(dag.vertex(v).pos.col % 2, 0);
        assert_eq!(parser.state(v), TaskState::Running);
        // No matching task -> None, stack untouched.
        let before = parser.computable_len();
        assert!(parser.pop_computable_matching(|_| false).is_none());
        assert_eq!(parser.computable_len(), before);
        parser.complete(&dag, v, None).unwrap();
    }

    #[test]
    fn unknown_vertex_id_errors() {
        let dag = TaskDag::from_pattern(&Wavefront2D::new(GridDims::new(1, 1)));
        let mut parser = DagParser::new(&dag);
        assert!(matches!(
            parser.fail(&dag, VertexId(99)),
            Err(ParseError::UnknownVertex { id: 99 })
        ));
    }
}
