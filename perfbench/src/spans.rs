//! Host-clock spans recorded by the benchmark around its calls into the
//! program (traced runs only). Kept in memory; written as Chrome-trace
//! JSON when the run ends.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Rep the span belongs to — the identifier all spans of one rep share.
    pub rep: u32,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Single-threaded span recorder: `enter`/`exit` nest like calls.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, rep: u32) {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, rep });
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_s()
    }

    /// Record `f` as a span.
    pub fn within<T>(&mut self, name: &'static str, rep: u32, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name, rep);
        let out = f();
        (out, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_s).collect()
    }

    /// Chrome-trace ("Trace Event Format") JSON: complete events, one
    /// `tid` per rep, so `chrome://tracing` / Perfetto stack them; `args.
    /// parent` is the index of the enclosing event (-1 for a root).
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    r#"{{"name":"{}","ph":"X","pid":0,"tid":{},"ts":{:.3},"dur":{:.3},"args":{{"parent":{}}}}}"#,
                    s.name,
                    s.rep,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.parent.map_or(-1, |p| p as i64)
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_rep_ids() {
        let mut r = Recorder::new();
        r.enter("rep", 3);
        r.within("build", 3, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.within("run", 3, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let rep_s = r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.rep == 3));
        assert!((s[0].dur_s() - rep_s).abs() < 1e-12);
        assert!(s[1].dur_s() + s[2].dur_s() <= rep_s, "children fit inside their parent");
        assert!(s[1].end_ns <= s[2].start_ns);
        assert_eq!(r.durations("build").len(), 1);
        let json = r.chrome_trace_json();
        assert!(json.contains(r#""name":"run","ph":"X""#));
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    }
}
