//! Host-time spans recorded by the benchmark around each public call,
//! kept in memory and written out at the end as a Chrome trace-event
//! document (the format `alisa_obs::perfetto` emits for simulated time;
//! these spans are host wall time).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `op` is the id of the operation the span belongs
/// to (the span id of the operation's own span), `parent` the span that
/// encloses it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: String,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    pub op: Option<usize>,
}

/// In-memory span recorder. When `on` is false it records nothing, so
/// the untraced run pays only the two clock reads that time each
/// operation.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<usize>,
}

impl Recorder {
    pub fn new(on: bool, origin: Instant) -> Self {
        Recorder {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    /// Opens a span; returns its id (`usize::MAX` when recording is
    /// off). `is_op` marks the span as an operation, whose id its
    /// children inherit as their operation id.
    pub fn open(&mut self, name: &str, is_op: bool) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        if is_op {
            self.op = Some(id);
        }
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_us,
            dur_us: 0.0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("close matches an open span");
        assert_eq!(top, id, "spans close in the order they opened");
        let now_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.dur_us = now_us - span.start_us;
        if self.op == Some(id) {
            self.op = None;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name, false);
        let out = f(self);
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event JSON document: one complete
    /// (`"ph":"X"`) event per span on a single thread lane, so nested
    /// spans render nested.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"hostbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                alisa_obs::json::escape(&s.name),
                s.start_us,
                s.dur_us,
                s.id,
                opt(s.parent),
                opt(s.op)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
