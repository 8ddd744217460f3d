//! In-memory spans recorded around the benchmark's own calls into each
//! layer. A disabled tracer records nothing and costs one branch per call.

use std::time::Instant;

/// One timed call: name, interval, the span that caused it, and the op
/// it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Name of the root span the measured loop opens around every op.
pub const OP: &str = "op";

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the next spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the returned handle closes it. `None` when off.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&s| s == id) {
            self.open.truncate(pos);
        }
    }

    /// Opens the root span of op `op`.
    pub fn enter_op(&mut self, op: u64) -> Option<usize> {
        self.op = op;
        self.enter(OP)
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(Span::secs)
            .collect()
    }

    /// Per pass of `n` op positions (op `k` is position `k % n`): the sum
    /// over positions of the fastest op's total time in spans named in
    /// `names`. Positions never traced add nothing.
    pub fn best_per_pass(&self, names: &[&str], n: usize) -> f64 {
        let mut per_op: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in &self.spans {
            if s.name == OP {
                per_op.entry(s.op).or_insert(0.0);
            }
            if names.contains(&s.name) {
                *per_op.entry(s.op).or_insert(0.0) += s.secs();
            }
        }
        let mut best = vec![f64::INFINITY; n.max(1)];
        for (op, secs) in per_op {
            let slot = (op % n.max(1) as u64) as usize;
            best[slot] = best[slot].min(secs);
        }
        best.iter()
            .filter(|v| v.is_finite())
            .fold(0.0, |a, b| a + b)
    }

    /// `(Σ op time, Σ op time no direct child span covers)` over every op
    /// root span.
    pub fn residual(&self) -> (f64, f64) {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == OP)
            .fold((0.0, 0.0), |(t, r), (i, s)| {
                (t + s.secs(), r + (s.secs() - covered[i]).max(0.0))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_op_time_outside_children() {
        let mut tr = Tracer::new(true);
        let op = tr.enter_op(7);
        tr.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(op);
        let (total, residual) = tr.residual();
        assert!(total >= 0.004 && residual >= 0.002 && residual < total);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let op = tr.enter_op(1);
        assert_eq!(tr.span("x", || 3), 3);
        tr.exit(op);
        assert!(tr.spans().is_empty());
    }
}
