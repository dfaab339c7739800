//! Timing of the benchmark's calls into the program.
//!
//! Every call the benchmark makes into a layer goes through a [`Clock`].
//! Untraced, the clock only measures how long the call took. Traced, it
//! also records a span — layer, name, start, end and the enclosing
//! span — and keeps all spans in memory until the run writes them out.

use std::fmt::Write as _;
use std::time::Instant;

/// The repository's layers, named after its crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `semper_sim`: the event engine, stall lanes and fault engine.
    Sim,
    /// `semper_caps`: `MappingDb` and `CapTable`.
    Caps,
    /// `semper_kernel`: syscall and kcall handlers, the ops engine.
    Kernel,
    /// `semper_m3fs`: the filesystem service.
    M3fs,
    /// `semper_apps`: nginx servers and load generators.
    Apps,
    /// `semperos`: machine build, topology and run loop.
    Core,
}

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Caps => "caps",
            Layer::Kernel => "kernel",
            Layer::M3fs => "m3fs",
            Layer::Apps => "apps",
            Layer::Core => "core",
        }
    }
}

/// Index of a span in [`Clock::spans`]; `NO_SPAN` for the root.
pub type SpanId = u32;

/// Parent of a top-level span.
pub const NO_SPAN: SpanId = u32::MAX;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer the call entered.
    pub layer: Layer,
    /// What was called.
    pub name: &'static str,
    /// Host nanoseconds since the clock started.
    pub start_ns: u64,
    /// Host nanoseconds since the clock started; 0 while open.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: SpanId,
}

/// An open phase or call, closed by [`Clock::exit`].
pub struct Open {
    start: Instant,
    id: SpanId,
}

/// Measures calls into the program, recording spans when traced.
pub struct Clock {
    origin: Instant,
    traced: bool,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Clock {
    /// A clock that records spans when `traced`.
    pub fn new(traced: bool) -> Clock {
        Clock { origin: Instant::now(), traced, spans: Vec::new(), stack: Vec::new() }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span around a phase or call.
    pub fn enter(&mut self, layer: Layer, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.traced {
            return Open { start, id: NO_SPAN };
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let start_ns = (start - self.origin).as_nanos() as u64;
        self.spans.push(Span { layer, name, start_ns, end_ns: 0, parent });
        self.stack.push(id);
        Open { start, id }
    }

    /// Closes a span; returns its duration in host nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if open.id != NO_SPAN {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.id), "spans must nest");
            self.spans[open.id as usize].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - open.start).as_nanos() as u64
    }

    /// Runs `f` as one call into `layer`; returns its result and its
    /// duration in host nanoseconds.
    pub fn call<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(layer, name);
        let r = f();
        (r, self.exit(open))
    }

    /// Durations (ns) of the spans named `name` whose parent is `parent`.
    pub fn durations(&self, name: &str, parent: SpanId) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The first span named `name`, if any.
    pub fn find(&self, name: &str) -> Option<SpanId> {
        self.spans.iter().position(|s| s.name == name).map(|i| i as SpanId)
    }

    /// Self time per layer in host nanoseconds: each span's duration
    /// minus the part its child spans cover.
    pub fn self_ns_by_layer(&self) -> Vec<(Layer, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: Vec<(Layer, u64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => by_layer.push((s.layer, own)),
            }
        }
        by_layer
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): one complete event per span, microsecond timestamps,
    /// the layer as category and the parent index as an argument.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 110 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
