//! The in-memory recorder and its exportable snapshot.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::event::{json_string, Event, JournalEntry};
use crate::histogram::LogHistogram;
use crate::Recorder;

/// Cap on retained journal entries. The journal is a ring: once full, the
/// oldest entries are dropped (and counted), so a long-running process can
/// keep a recorder installed without unbounded growth.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

#[derive(Default)]
struct Store {
    journal: VecDeque<JournalEntry>,
    /// Entries evicted from the front of the ring.
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
    timings: BTreeMap<&'static str, LogHistogram>,
}

impl Store {
    /// Appends to the ring, evicting (and counting) the oldest entry when
    /// it is full — O(1), so a full journal costs nothing extra per entry.
    fn append(&mut self, entry: JournalEntry, capacity: usize) {
        if self.journal.len() >= capacity {
            self.journal.pop_front();
            self.dropped += 1;
        }
        self.journal.push_back(entry);
    }
}

/// A thread-safe recorder that accumulates everything in memory.
///
/// Parallel fan-outs record through [`fork`](Recorder::fork) children that
/// are [`join`](Recorder::join)ed back **in input order**, so the merged
/// journal is identical for any worker-thread count.
pub struct MemoryRecorder {
    inner: Mutex<Store>,
    capacity: usize,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryRecorder {
    /// An empty recorder with the default journal capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// An empty recorder retaining at most `capacity` journal entries.
    pub fn with_capacity(capacity: usize) -> Self {
        MemoryRecorder {
            inner: Mutex::new(Store::default()),
            capacity: capacity.max(1),
        }
    }

    /// Convenience constructor for the usual `Arc`-wrapped form.
    pub fn shared() -> Arc<MemoryRecorder> {
        Arc::new(MemoryRecorder::new())
    }

    /// Copies the accumulated state out for inspection/export.
    pub fn snapshot(&self) -> TraceSnapshot {
        let store = self.inner.lock().expect("recorder poisoned");
        TraceSnapshot {
            journal: store.journal.iter().cloned().collect(),
            dropped_entries: store.dropped,
            counters: store.counters.clone(),
            histograms: store.histograms.clone(),
            timings: store.timings.clone(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn journal(&self, entry: JournalEntry) {
        let mut store = self.inner.lock().expect("recorder poisoned");
        store.append(entry, self.capacity);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        let mut store = self.inner.lock().expect("recorder poisoned");
        *store.counters.entry(name).or_insert(0) += delta;
    }

    fn histogram(&self, name: &'static str, value: f64) {
        let mut store = self.inner.lock().expect("recorder poisoned");
        store.histograms.entry(name).or_default().record(value);
    }

    fn timing(&self, name: &'static str, wall_ns: u64) {
        let mut store = self.inner.lock().expect("recorder poisoned");
        store
            .timings
            .entry(name)
            .or_default()
            .record(wall_ns as f64);
    }

    fn fork(&self, _index: usize) -> Arc<dyn Recorder> {
        Arc::new(MemoryRecorder::with_capacity(self.capacity))
    }

    fn join(&self, children: Vec<Arc<dyn Recorder>>) {
        for child in children {
            // Children that are not memory recorders (possible only if a
            // custom recorder forked us in) have nothing to merge.
            let Some(child) = child.as_any().downcast_ref::<MemoryRecorder>() else {
                continue;
            };
            let mut theirs = child.inner.lock().expect("recorder poisoned");
            let mut store = self.inner.lock().expect("recorder poisoned");
            for entry in theirs.journal.drain(..) {
                store.append(entry, self.capacity);
            }
            store.dropped += theirs.dropped;
            for (name, delta) in &theirs.counters {
                *store.counters.entry(name).or_insert(0) += delta;
            }
            for (name, h) in &theirs.histograms {
                store.histograms.entry(name).or_default().merge(h);
            }
            for (name, h) in &theirs.timings {
                store.timings.entry(name).or_default().merge(h);
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// An immutable copy of a recorder's accumulated state, exportable as
/// versioned JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// The event journal in recording order.
    pub journal: Vec<JournalEntry>,
    /// Journal entries evicted by the ring-buffer cap.
    pub dropped_entries: u64,
    /// Named monotone counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Deterministic-value histograms (step counts, residuals, …).
    pub histograms: BTreeMap<&'static str, LogHistogram>,
    /// Wall-clock histograms (per-task nanoseconds); nondeterministic by
    /// nature, masked down to observation counts in replay comparisons.
    pub timings: BTreeMap<&'static str, LogHistogram>,
}

impl TraceSnapshot {
    /// Version stamp written into every exported trace document.
    pub const FORMAT_VERSION: u32 = 1;

    /// The journal with wall-clock durations masked: the replay-comparison
    /// form. Two runs with identical seeds, netlists, and fault plans must
    /// produce identical line vectors.
    pub fn deterministic_lines(&self) -> Vec<String> {
        self.journal
            .iter()
            .map(JournalEntry::deterministic_line)
            .collect()
    }

    /// Just the structured events (span boundaries skipped).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.journal.iter().filter_map(|e| match e {
            JournalEntry::Event(ev) => Some(ev),
            _ => None,
        })
    }

    /// A counter's value (`0` when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The structured events of one kind, in recording order — e.g.
    /// `events_of_kind("sched.quarantine")` to audit a fleet run.
    pub fn events_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events().filter(move |e| e.kind == kind)
    }

    /// Serializes the full trace, wall clocks included.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Serializes with every wall-clock field masked (span durations as
    /// `0`, timing histograms reduced to counts): two same-seed replays
    /// produce **bit-identical** documents.
    pub fn to_json_masked(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, mask_wall: bool) -> String {
        let events: Vec<String> = self
            .journal
            .iter()
            .map(|e| format!("    {}", e.to_json(mask_wall)))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("    {}: {v}", json_string(name)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, h)| format!("    {}: {}", json_string(name), h.to_json(false)))
            .collect();
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(name, h)| format!("    {}: {}", json_string(name), h.to_json(mask_wall)))
            .collect();
        format!(
            "{{\n  \"format\": \"aa-obs-trace\",\n  \"version\": {},\n  \
             \"dropped_entries\": {},\n  \"events\": [\n{}\n  ],\n  \
             \"counters\": {{\n{}\n  }},\n  \"histograms\": {{\n{}\n  }},\n  \
             \"timings\": {{\n{}\n  }}\n}}\n",
            Self::FORMAT_VERSION,
            self.dropped_entries,
            events.join(",\n"),
            counters.join(",\n"),
            histograms.join(",\n"),
            timings.join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    #[test]
    fn records_and_snapshots() {
        let rec = MemoryRecorder::new();
        rec.journal(JournalEntry::SpanStart { name: "a" });
        rec.counter("hits", 2);
        rec.counter("hits", 3);
        rec.histogram("steps", 100.0);
        rec.timing("task_ns", 12345);
        rec.journal(JournalEntry::Event(Event::new("done").with("ok", true)));
        rec.journal(JournalEntry::SpanEnd {
            name: "a",
            wall_ns: 777,
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(
            snap.deterministic_lines(),
            vec![
                ">a".to_string(),
                "done ok=true".to_string(),
                "<a".to_string()
            ]
        );
        assert_eq!(snap.events().count(), 1);
        assert_eq!(
            snap.events().next().unwrap().field("ok"),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn join_merges_children_in_given_order() {
        let parent = MemoryRecorder::new();
        parent.journal(JournalEntry::Event(Event::new("before")));
        let children: Vec<Arc<dyn Recorder>> = (0..3)
            .map(|i| {
                let child = parent.fork(i);
                child.journal(JournalEntry::Event(Event::new("task").with("index", i)));
                child.counter("tasks", 1);
                child.histogram("load", (i + 1) as f64);
                child
            })
            .collect();
        // Join in reverse of creation order: the merge respects the vector
        // order handed in, which callers keep as input order.
        parent.join(children);
        let snap = parent.snapshot();
        assert_eq!(
            snap.deterministic_lines(),
            vec!["before", "task index=0", "task index=1", "task index=2"]
        );
        assert_eq!(snap.counter("tasks"), 3);
        assert_eq!(snap.histograms["load"].count(), 3);
        assert_eq!(snap.histograms["load"].sum(), 6.0);
    }

    #[test]
    fn journal_ring_drops_oldest() {
        let rec = MemoryRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.journal(JournalEntry::Event(Event::new("e").with("i", i)));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_entries, 2);
        assert_eq!(snap.deterministic_lines(), vec!["e i=2", "e i=3", "e i=4"]);

        // Overflow through `join`: merged entries evict the parent's oldest
        // in order, and a child's own evictions add to the dropped count.
        let child = rec.fork(0);
        for j in 0..2u64 {
            child.journal(JournalEntry::Event(Event::new("c").with("j", j)));
        }
        rec.join(vec![child]);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_entries, 4);
        assert_eq!(snap.deterministic_lines(), vec!["e i=4", "c j=0", "c j=1"]);

        let child = rec.fork(1);
        for j in 0..4u64 {
            child.journal(JournalEntry::Event(Event::new("d").with("j", j)));
        }
        rec.join(vec![child]);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_entries, 4 + 3 + 1);
        assert_eq!(snap.deterministic_lines(), vec!["d j=1", "d j=2", "d j=3"]);
    }

    #[test]
    fn masked_json_is_replay_stable() {
        let run = |wall: u64| {
            let rec = MemoryRecorder::new();
            rec.journal(JournalEntry::SpanStart { name: "s" });
            rec.timing("wall", wall);
            rec.journal(JournalEntry::SpanEnd {
                name: "s",
                wall_ns: wall,
            });
            rec.snapshot()
        };
        let a = run(111);
        let b = run(999_999);
        assert_eq!(a.to_json_masked(), b.to_json_masked());
        assert_ne!(a.to_json(), b.to_json());
        // The export is valid JSON with the version stamp.
        let parsed = crate::json::Json::parse(&a.to_json()).unwrap();
        assert_eq!(
            parsed.get("version").and_then(|v| v.as_f64()),
            Some(f64::from(TraceSnapshot::FORMAT_VERSION))
        );
        assert_eq!(
            parsed.get("format").and_then(|v| v.as_str()),
            Some("aa-obs-trace")
        );
    }
}
