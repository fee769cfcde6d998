//! The traced run's recorder: folds the spans and counters the program
//! already emits into per-name totals, plus the two event fields the
//! per-layer metrics read, and keeps no journal.
//!
//! Self time is computed per recorder. Every forked child (one per parallel
//! task) keeps its own stack of open spans, so a span only ever subtracts
//! the children it encloses *on the same task*: worker-side `engine.*`
//! spans never eat into the dispatcher's `sched.round`.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use aa_obs::{JournalEntry, Recorder, Value};

/// One span name's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Closed spans.
    pub calls: u64,
    /// Σ duration, nanoseconds.
    pub inclusive_ns: u64,
    /// Σ duration minus the time covered by spans nested inside it on the
    /// same recorder, nanoseconds.
    pub self_ns: u64,
}

/// Everything a recorder (and the children joined into it) has folded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Per span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Per counter name.
    pub counters: BTreeMap<&'static str, u64>,
    /// `solver.recovery.attempt` events whose `action` is `cg_fallback`.
    pub cg_fallbacks: u64,
    /// Σ `accepted` over `solver.recovery.batch` events: batch columns the
    /// ladder accepted without a supervised solve.
    pub batch_accepted: u64,
    /// Σ duration of the spans that were outermost on their recorder,
    /// counted on the root recorder only: the part of the root thread's
    /// wall time the program's spans cover.
    pub root_covered_ns: u64,
}

impl Totals {
    /// A counter's value (0 when never emitted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A span's totals (zero when never closed).
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Σ self time of the named spans, milliseconds.
    pub fn self_ms(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.span(n).self_ns as f64)
            .sum::<f64>()
            / 1e6
    }

    /// Adds a joined child's totals. A child's outermost spans ran
    /// concurrently with the root, so they add nothing to root coverage.
    fn absorb(&mut self, child: &Totals) {
        for (name, s) in &child.spans {
            let t = self.spans.entry(name).or_default();
            t.calls += s.calls;
            t.inclusive_ns += s.inclusive_ns;
            t.self_ns += s.self_ns;
        }
        for (name, v) in &child.counters {
            *self.counters.entry(name).or_default() += v;
        }
        self.cg_fallbacks += child.cg_fallbacks;
        self.batch_accepted += child.batch_accepted;
    }
}

#[derive(Debug, Default)]
struct State {
    /// Open spans: `(name, ns covered by already-closed nested spans)`.
    open: Vec<(&'static str, u64)>,
    totals: Totals,
}

/// An aggregating [`Recorder`]. Install the root with
/// [`aa_obs::with_recorder`]; the program's parallel primitives fork and
/// join children through the trait.
#[derive(Debug, Default)]
pub struct AggregatingRecorder {
    state: Mutex<State>,
    root: bool,
}

impl AggregatingRecorder {
    /// A root recorder, the one whose outermost spans count as coverage.
    pub fn root() -> Arc<Self> {
        Arc::new(AggregatingRecorder {
            state: Mutex::default(),
            root: true,
        })
    }

    /// A copy of the totals folded so far.
    pub fn totals(&self) -> Totals {
        self.lock().totals.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("recorder state is only mutated by non-panicking code")
    }
}

impl Recorder for AggregatingRecorder {
    fn journal(&self, entry: JournalEntry) {
        let mut state = self.lock();
        match entry {
            JournalEntry::SpanStart { name } => state.open.push((name, 0)),
            JournalEntry::SpanEnd { name, wall_ns } => {
                let Some((opened, nested_ns)) = state.open.pop() else {
                    return;
                };
                debug_assert_eq!(opened, name, "spans close in LIFO order");
                let t = state.totals.spans.entry(name).or_default();
                t.calls += 1;
                t.inclusive_ns += wall_ns;
                t.self_ns += wall_ns.saturating_sub(nested_ns);
                match state.open.last_mut() {
                    Some(parent) => parent.1 += wall_ns,
                    None if self.root => state.totals.root_covered_ns += wall_ns,
                    None => {}
                }
            }
            JournalEntry::Event(event) => {
                let totals = &mut state.totals;
                for (field, value) in &event.fields {
                    match (event.kind, *field, value) {
                        ("solver.recovery.attempt", "action", Value::Str(s))
                            if s == "cg_fallback" =>
                        {
                            totals.cg_fallbacks += 1;
                        }
                        ("solver.recovery.batch", "accepted", Value::U64(v)) => {
                            totals.batch_accepted += v;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self.lock().totals.counters.entry(name).or_default() += delta;
    }

    fn histogram(&self, _name: &'static str, _value: f64) {}

    fn timing(&self, _name: &'static str, _wall_ns: u64) {}

    fn fork(&self, _index: usize) -> Arc<dyn Recorder> {
        Arc::new(AggregatingRecorder::default())
    }

    fn join(&self, children: Vec<Arc<dyn Recorder>>) {
        let mut state = self.lock();
        for child in children {
            if let Some(child) = child.as_any().downcast_ref::<AggregatingRecorder>() {
                state.totals.absorb(&child.lock().totals);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(r: &dyn Recorder, name: &'static str) {
        r.journal(JournalEntry::SpanStart { name });
    }

    fn end(r: &dyn Recorder, name: &'static str, wall_ns: u64) {
        r.journal(JournalEntry::SpanEnd { name, wall_ns });
    }

    #[test]
    fn nested_spans_subtract_only_their_children() {
        let root = AggregatingRecorder::root();
        start(&*root, "outer");
        start(&*root, "mid");
        start(&*root, "leaf");
        end(&*root, "leaf", 30);
        start(&*root, "leaf");
        end(&*root, "leaf", 20);
        end(&*root, "mid", 70);
        end(&*root, "outer", 100);
        let t = root.totals();
        assert_eq!(t.span("outer").self_ns, 30);
        assert_eq!(t.span("mid").self_ns, 20);
        assert_eq!(
            t.span("leaf"),
            SpanTotals {
                calls: 2,
                inclusive_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(t.root_covered_ns, 100, "only the outermost span covers");
    }

    #[test]
    fn forked_spans_never_subtract_from_the_parent() {
        let root = AggregatingRecorder::root();
        start(&*root, "sched.round");
        let children: Vec<Arc<dyn Recorder>> = (0..2).map(|i| root.fork(i)).collect();
        for child in &children {
            start(&**child, "engine.execute");
            end(&**child, "engine.execute", 80);
            child.counter("engine.steps", 5);
        }
        root.join(children);
        end(&*root, "sched.round", 100);
        let t = root.totals();
        assert_eq!(t.span("sched.round").self_ns, 100);
        assert_eq!(t.span("engine.execute").self_ns, 160);
        assert_eq!(t.span("engine.execute").calls, 2);
        assert_eq!(t.counter("engine.steps"), 10);
        assert_eq!(t.root_covered_ns, 100, "children ran concurrently");
    }

    #[test]
    fn children_compute_self_time_on_their_own_stack() {
        let root = AggregatingRecorder::root();
        let child = root.fork(0);
        start(&*child, "solver.recovery");
        start(&*child, "solver.solve");
        end(&*child, "solver.solve", 40);
        end(&*child, "solver.recovery", 50);
        root.join(vec![child]);
        let t = root.totals();
        assert_eq!(t.span("solver.recovery").self_ns, 10);
        assert_eq!(t.span("solver.solve").self_ns, 40);
        assert_eq!(t.root_covered_ns, 0);
    }

    #[test]
    fn only_the_read_event_fields_are_folded() {
        let root = AggregatingRecorder::root();
        aa_obs::with_recorder(root.clone(), || {
            aa_obs::event(aa_obs::Event::new("solver.recovery.attempt").with("action", "retry"));
            aa_obs::event(
                aa_obs::Event::new("solver.recovery.attempt").with("action", "cg_fallback"),
            );
            aa_obs::event(aa_obs::Event::new("solver.recovery.batch").with("accepted", 3usize));
            aa_obs::event(aa_obs::Event::new("solver.recovery.batch").with("accepted", 2usize));
            aa_obs::event(aa_obs::Event::new("solver.recovery.batch").with("attempts", 7usize));
            aa_obs::event(aa_obs::Event::new("engine.run").with("action", "cg_fallback"));
            aa_obs::counter("sched.spills", 2);
        });
        if !aa_obs::ENABLED {
            return;
        }
        let t = root.totals();
        assert_eq!(t.cg_fallbacks, 1);
        assert_eq!(t.batch_accepted, 5);
        assert_eq!(t.counter("sched.spills"), 2);
    }
}
