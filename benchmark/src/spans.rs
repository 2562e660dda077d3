//! In-memory spans recorded from the benchmark's side of the public trait
//! seams, the self-time arithmetic over them, and the `LlmClient` decorator
//! that records one span per engine call and captures the call for replay
//! into the lower layers.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spear_core::error::Result;
use spear_core::llm::{GenRequest, GenResponse, GenReuse, LlmClient, ReusePolicy};
use spear_core::scope;
use spear_llm::SimLlm;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `parent` is the index of the enclosing span in
/// the recorder's list; spans of one request share `request_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: Option<u64>,
}

/// Collects spans from any thread. Enclosing spans are opened and closed on
/// the benchmark's main thread; leaf spans (engine calls) arrive from the
/// product's worker lanes and take the innermost open span as parent.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    open: AtomicU32,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: AtomicU32::new(NO_PARENT),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder never panics while locked")
    }

    fn parent(&self) -> Option<u32> {
        Some(self.open.load(SeqCst)).filter(|&p| p != NO_PARENT)
    }

    /// Open an enclosing span; spans recorded until [`Recorder::close`] are
    /// its children.
    pub fn open(&self, name: &'static str, request_id: Option<u64>) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent(),
            request_id,
        });
        self.open.store(id, SeqCst);
        id
    }

    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id as usize].end_ns = end_ns;
        self.open
            .store(spans[id as usize].parent.unwrap_or(NO_PARENT), SeqCst);
    }

    /// Record a finished leaf span that started at `start_ns`.
    pub fn leaf(&self, name: &'static str, start_ns: u64, request_id: Option<u64>) {
        let end_ns = self.now_ns();
        let parent = self.parent();
        self.lock().push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Summed self time of every span called `name`: a span's duration minus the
/// part of it that its child spans cover. Children on different lanes may
/// overlap; overlapping time is subtracted once.
pub fn self_ns_of(spans: &[Span], name: &str) -> u64 {
    // One pass to bucket children by parent keeps this linear in the number
    // of spans (a traced pass records tens of thousands).
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .filter(|(s, _)| s.name == name)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - union_ns(kids, s.start_ns, s.end_ns))
        .sum()
}

/// Summed duration of every span called `name`.
pub fn total_ns_of(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

pub fn count_of(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// Append `more`, recorded by another recorder, after `spans`, shifting its
/// parent indices so they still point at the right lines of one file.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let by = spans.len() as u32;
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + by);
        s
    }));
}

/// Write spans as JSON lines `{name, start_ns, end_ns, parent, request_id}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(u64::from)),
            opt(s.request_id),
        )?;
    }
    Ok(())
}

/// One engine call as seen at the `LlmClient` seam.
pub struct Captured {
    pub request: GenRequest,
    pub response: GenResponse,
    pub reuse: Option<GenReuse>,
    /// Cache owner of the calling execution scope.
    pub owner: u64,
}

/// How a workload recovers the request id of an engine call.
pub type RequestIdOf = fn(&GenRequest, u64) -> Option<u64>;

/// Engine calls one decorator keeps for replay; later calls are only timed.
/// A prefix of the call sequence is a valid replay, and prompts of several
/// kilobytes each are not worth holding by the tens of thousands.
const CAPTURE_LIMIT: usize = 16_384;

/// `LlmClient` decorator around the simulated engine: one `llm.generate`
/// span per call, and the first [`CAPTURE_LIMIT`] calls kept for replay.
pub struct SpanLlm {
    inner: Arc<SimLlm>,
    recorder: Arc<Recorder>,
    request_id_of: RequestIdOf,
    captured: Mutex<Vec<Captured>>,
}

impl SpanLlm {
    pub fn new(
        inner: Arc<SimLlm>,
        recorder: Arc<Recorder>,
        request_id_of: RequestIdOf,
    ) -> Arc<Self> {
        Arc::new(Self {
            inner,
            recorder,
            request_id_of,
            captured: Mutex::new(Vec::new()),
        })
    }

    pub fn take_captured(&self) -> Vec<Captured> {
        std::mem::take(&mut *self.captured.lock().expect("capture list lock"))
    }

    fn observe(
        &self,
        start_ns: u64,
        request: &GenRequest,
        result: &Result<(GenResponse, Option<GenReuse>)>,
    ) {
        let owner = scope::owner();
        self.recorder.leaf(
            "llm.generate",
            start_ns,
            (self.request_id_of)(request, owner),
        );
        if let Ok((response, reuse)) = result {
            let mut captured = self.captured.lock().expect("capture list lock");
            if captured.len() < CAPTURE_LIMIT {
                captured.push(Captured {
                    request: request.clone(),
                    response: response.clone(),
                    reuse: *reuse,
                    owner,
                });
            }
        }
    }
}

impl LlmClient for SpanLlm {
    fn generate(&self, request: &GenRequest) -> Result<GenResponse> {
        let start_ns = self.recorder.now_ns();
        let result = self.inner.generate(request).map(|r| (r, None));
        self.observe(start_ns, request, &result);
        result.map(|(response, _)| response)
    }

    fn generate_with_reuse(
        &self,
        request: &GenRequest,
        policy: ReusePolicy,
    ) -> Result<(GenResponse, Option<GenReuse>)> {
        let start_ns = self.recorder.now_ns();
        let result = self.inner.generate_with_reuse(request, policy);
        self.observe(start_ns, request, &result);
        result
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: None,
        }
    }

    #[test]
    fn overlapping_children_from_two_lanes_are_subtracted_once() {
        // Parent 0..100. Lane A is in the engine 10..40 and 60..90, lane B
        // 30..70: together they cover 10..90.
        let spans = vec![
            span("run", 0, 100, None),
            span("llm.generate", 10, 40, Some(0)),
            span("llm.generate", 30, 70, Some(0)),
            span("llm.generate", 60, 90, Some(0)),
        ];
        assert_eq!(self_ns_of(&spans, "run"), 20);
        assert_eq!(total_ns_of(&spans, "llm.generate"), 100);
        assert_eq!(
            self_ns_of(&spans, "llm.generate"),
            100,
            "leaves have no children"
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = vec![
            span("run", 100, 200, None),
            span("exec", 90, 150, Some(0)), // starts before the parent
            span("llm.generate", 110, 140, Some(1)), // grandchild of `run`
            span("exec", 180, 260, Some(0)), // ends after the parent
        ];
        assert_eq!(self_ns_of(&spans, "run"), 100 - (50 + 20));
        assert_eq!(self_ns_of(&spans, "exec"), (60 - 30) + 80);
    }

    #[test]
    fn recorder_nests_open_spans_and_parents_leaves() {
        let recorder = Recorder::new();
        let run = recorder.open("run", None);
        let exec = recorder.open("exec", Some(7));
        recorder.leaf("llm.generate", recorder.now_ns(), Some(7));
        recorder.close(exec);
        recorder.leaf("llm.generate", recorder.now_ns(), Some(8));
        recorder.close(run);
        let spans = recorder.snapshot();
        let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut jsonl = Vec::new();
        write_jsonl(&spans, &mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"parent\":1,\"request_id\":7"));
    }
}
