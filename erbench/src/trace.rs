//! In-memory span recorder for traced runs.
//!
//! A span carries a name, start and end (ns since the tracer was made)
//! and its parent's id. Spans nest by scope on the calling thread; the
//! benchmark opens them only on its driving thread (the resolve callback
//! runs there too). Nothing is written until [`Tracer::write`] at exit.
//! A disabled tracer records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            let mut st = self.tracer.state.lock().expect("tracer lock");
            st.spans[id].end_ns = end;
            if let Some(pos) = st.open.iter().rposition(|&o| o == id) {
                st.open.remove(pos);
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), state: Mutex::new(State::default()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, id: None };
        }
        let start = self.now_ns();
        let mut st = self.state.lock().expect("tracer lock");
        let id = st.spans.len();
        let parent = st.open.last().copied();
        st.spans.push(SpanRec { id, parent, name, start_ns: start, end_ns: start });
        st.open.push(id);
        SpanGuard { tracer: self, id: Some(id) }
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.state.lock().expect("tracer lock").spans.clone()
    }

    /// Writes the span list plus per-name total and self time as JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\n  \"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "    {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"by_name\": {\n");
        let table = by_name(&spans);
        for (i, (name, (total, own))) in table.iter().enumerate() {
            out.push_str(&format!(
                "    \"{name}\": {{\"total_s\": {total}, \"self_s\": {own}}}{}\n",
                if i + 1 < table.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn dur_s(s: &SpanRec) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
}

/// Per-span self time: its duration minus the durations of its children.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(dur_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= dur_s(s);
        }
    }
    own
}

/// `name -> (total seconds, self seconds)`, summed over spans.
pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, (f64, f64)> {
    let own = self_times(spans);
    let mut table = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let e = table.entry(s.name).or_insert((0.0, 0.0));
        e.0 += dur_s(s);
        e.1 += o;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRec { id: 0, parent: None, name: "a", start_ns: 0, end_ns: 1_000 },
            SpanRec { id: 1, parent: Some(0), name: "b", start_ns: 100, end_ns: 400 },
            SpanRec { id: 2, parent: Some(0), name: "b", start_ns: 500, end_ns: 700 },
        ];
        let own = self_times(&spans);
        assert!((own[0] - 500e-9).abs() < 1e-15);
        let t = by_name(&spans);
        assert!((t["b"].0 - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_by_scope_and_disabled_records_nothing() {
        let tr = Tracer::new(true);
        {
            let _a = tr.span("outer");
            let _b = tr.span("inner");
        }
        let _c = tr.span("next");
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        let off = Tracer::new(false);
        drop(off.span("x"));
        assert!(off.spans().is_empty());
    }
}
