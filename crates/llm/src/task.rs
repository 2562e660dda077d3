//! The behavioural task model.
//!
//! This is the quality half of the DESIGN.md substitution: instead of real
//! model weights, each request is routed to a deterministic task behaviour
//! whose correctness probability is `base_accuracy(task) + prompt-feature
//! bonuses − fusion penalty`, with the Bernoulli draw seeded by
//! `(input item, model, prompt features)` so identical configurations give
//! identical results. The residual error floor comes from genuinely
//! ambiguous items (generator-controlled), which no prompt fixes — matching
//! how prompt refinements move accuracy in the paper without reaching 1.0.
//!
//! ## One resumable scan per prompt
//!
//! Everything the model reads from a prompt's wording is collected by one
//! forward pass, [`TaskScan`]: the first offset of each case-insensitive
//! marker (detection, [`PromptFeatures`], the justification, dosage and
//! timing directives), the digits after the first word-limit phrase, and the
//! last offset of each case-sensitive item marker (`Input:`, `Tweet:`,
//! `Text:`), the first offset of the case-sensitive fused-section header
//! `in this order:`, and the prompt's word count. The scan takes the prompt
//! in chunks and its state is a plain `Copy` value, so the engine keeps it
//! in the token interner next to the tokenizer's resume state
//! ([`crate::intern::ScannedChain`]): a prompt family's shared prefix is
//! scanned once per process, and each request scans only its suffix. A
//! prompt that arrives whole is the same scan fed one chunk. The generic
//! answer reads the scan, and slices the text only to parse the section
//! labels after a fused-section header. The behaviours that need more than
//! those facts — the prompt rewrite and write tasks and QA's sentence
//! search — read the original text.
//!
//! Feeding chunk by chunk is exact because every marker is ASCII. Each
//! chunk is lowercased char by char; the only context-dependent lowercase
//! mapping is Greek capital sigma, whose two results (σ and final ς) are
//! both two non-ASCII bytes, so marker matches and lowered offsets equal
//! those in the whole prompt's `to_lowercase`. A chunk keeps the last
//! (longest marker − 1) lowered bytes of the text before it, so a marker
//! split across chunks is found once, and a digit run open at a chunk's end
//! continues into the next. Words are counted as `split_whitespace` splits
//! them, and whether the text so far ends inside a word carries across the
//! cut.

use std::cell::RefCell;

use spear_data::vocab;
use spear_kv::shard::fnv1a;

use crate::profile::{ModelProfile, PromptFeatures, TaskKind};

#[cfg(test)]
mod reference;

/// Result of running the task model.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// Generated text.
    pub text: String,
    /// Model confidence in `[0, 1]`.
    pub confidence: f64,
}

/// The case-insensitive markers the model reads, one per [`Marker`].
const MARKERS: [&str; 28] = [
    "--- prompt ---",
    "write a prompt",
    "generate a prompt",
    "summarize",
    "clean up",
    "sentiment",
    "classify",
    "school",
    "medication",
    "enoxaparin",
    "objective:",
    "the goal is",
    "be specific",
    "every relevant detail",
    "focus on",
    "step by step",
    "reasoning",
    "example:",
    "output:",
    "word limit",
    "at most",
    "no more than",
    "justification",
    "dosage",
    "timing",
    "at most ",
    "word limit of ",
    "no more than ",
];

/// Index into [`MARKERS`]. The last three are the word-limit phrases whose
/// digits the scan reads, in the order they are tried.
#[derive(Debug, Clone, Copy)]
enum Marker {
    RewriteBlock,
    WriteAPrompt,
    GenerateAPrompt,
    Summarize,
    CleanUp,
    Sentiment,
    Classify,
    School,
    Medication,
    Enoxaparin,
    Objective,
    TheGoalIs,
    BeSpecific,
    EveryRelevantDetail,
    FocusOn,
    StepByStep,
    Reasoning,
    Example,
    Output,
    WordLimit,
    AtMost,
    NoMoreThan,
    Justification,
    Dosage,
    Timing,
    AtMostN,
}

/// The first of the three word-limit phrases in [`MARKERS`].
const LIMIT_PHRASES: usize = Marker::AtMostN as usize;

const _: () = assert!(MARKERS.len() <= 32 && LIMIT_PHRASES + 3 == MARKERS.len());

/// The shortest marker: a window's last `SHORTEST - 1` bytes cannot start
/// a match in it (the next window's carry holds them).
const SHORTEST: usize = 6;

/// For each byte `b`, the [`MARKERS`] whose byte `at` is `b`, one bit each.
const fn byte_table(at: usize) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut m = 0;
    while m < MARKERS.len() {
        assert!(MARKERS[m].len() >= SHORTEST);
        table[MARKERS[m].as_bytes()[at] as usize] |= 1 << m;
        m += 1;
    }
    table
}

/// The markers a window position can start, filtered on its first three
/// bytes, so a full comparison runs only where one almost surely matches.
const FIRST_BYTE: [u32; 256] = byte_table(0);
const SECOND_BYTE: [u32; 256] = byte_table(1);
const THIRD_BYTE: [u32; 256] = byte_table(2);

/// The first position at or after `from` where one of the `unseen`
/// markers starts in `window`, and that marker.
fn next_marker(window: &[u8], from: usize, unseen: u32) -> Option<(usize, usize)> {
    let starts = window.len().saturating_sub(SHORTEST - 1);
    for at in from..starts {
        let mut candidates = FIRST_BYTE[usize::from(window[at])]
            & SECOND_BYTE[usize::from(window[at + 1])]
            & THIRD_BYTE[usize::from(window[at + 2])]
            & unseen;
        while candidates != 0 {
            let m = candidates.trailing_zeros() as usize;
            if window[at..].starts_with(MARKERS[m].as_bytes()) {
                return Some((at, m));
            }
            candidates &= candidates - 1;
        }
    }
    None
}

/// Lowered bytes a chunk keeps of the text before it: one short of the
/// longest marker.
const CARRY: usize = {
    let mut longest = 0;
    let mut m = 0;
    while m < MARKERS.len() {
        if MARKERS[m].len() > longest {
            longest = MARKERS[m].len();
        }
        m += 1;
    }
    longest - 1
};

/// The case-sensitive item markers, in priority order; each ends in `:`.
const ITEM_MARKERS: [&str; 3] = ["Input:", "Tweet:", "Text:"];

/// The case-sensitive header of a fused multi-section request (the
/// optimizer's GEN fusion writes "Produce one section per requested
/// output, in this order: a, b."); it ends in `:` like the item markers.
const ORDER_HEADER: &str = "in this order:";

/// Original bytes a chunk keeps of the text before it: one short of the
/// longest colon-ended marker, [`ORDER_HEADER`].
const ITEM_CARRY: usize = ORDER_HEADER.len() - 1;

/// An offset not seen yet.
const NONE: usize = usize::MAX;

thread_local! {
    // One lowered window (carry + chunk) at a time, reused across feeds.
    static LOWERED: RefCell<String> = const { RefCell::new(String::new()) };
}

/// The last at most `N` bytes of the text fed so far.
#[derive(Debug, Clone, Copy)]
struct Tail<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Tail<N> {
    const EMPTY: Self = Self {
        buf: [0; N],
        len: 0,
    };

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The kept bytes from their first char boundary on. The bytes
    /// skipped continue a char that starts before the tail, so no ASCII
    /// marker can include them.
    fn text(&self) -> &str {
        let bytes = self.bytes();
        let start = bytes
            .iter()
            .position(|&b| !(0x80..0xC0).contains(&b))
            .unwrap_or(bytes.len());
        std::str::from_utf8(&bytes[start..]).unwrap_or_default()
    }

    /// Append `more`, keeping the last `N` bytes.
    fn push(&mut self, more: &[u8]) {
        if more.len() >= N {
            self.buf.copy_from_slice(&more[more.len() - N..]);
            self.len = N;
        } else {
            let keep = self.len.min(N - more.len());
            self.buf.copy_within(self.len - keep..self.len, 0);
            self.buf[keep..keep + more.len()].copy_from_slice(more);
            self.len = keep + more.len();
        }
    }
}

/// Whether `head ++ tail` ends with `marker`.
fn ends_with_split(head: &[u8], tail: &[u8], marker: &[u8]) -> bool {
    if tail.len() >= marker.len() {
        tail.ends_with(marker)
    } else {
        let (front, back) = marker.split_at(marker.len() - tail.len());
        tail == back && head.ends_with(front)
    }
}

/// `char::is_whitespace` on ASCII: `\t`, `\n`, `\x0B`, `\x0C`, `\r` and
/// space (`u8::is_ascii_whitespace` leaves out `\x0B`).
const fn ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The words that start in ASCII `bytes` after its first byte: each
/// non-space byte after a space. Summed in `u8`, 255 pairs at a time, so
/// the loop runs in vector lanes.
fn word_starts(bytes: &[u8]) -> usize {
    let tails = bytes.get(1..).unwrap_or_default();
    bytes
        .chunks(255)
        .zip(tails.chunks(255))
        .map(|(a, b)| {
            let starts = a.iter().zip(b).fold(0u8, |n, (&x, &y)| {
                n + u8::from(ascii_space(x) & !ascii_space(y))
            });
            usize::from(starts)
        })
        .sum()
}

/// Append `chunk`'s lowercase to `out`, one char at a time.
fn lowercase_into(chunk: &str, out: &mut String) {
    if chunk.is_ascii() {
        let start = out.len();
        out.push_str(chunk);
        out[start..].make_ascii_lowercase();
        return;
    }
    out.extend(chunk.chars().flat_map(char::to_lowercase));
}

/// Everything the task model reads from a prompt, gathered in one forward
/// pass that can stop after any chunk and resume from a copy of its state
/// (see the module docs). Feed the prompt's chunks in order; the readers
/// then answer for the text fed so far.
#[derive(Debug, Clone, Copy)]
pub struct TaskScan {
    /// Lowered offset of each marker's first occurrence, or [`NONE`].
    first: [usize; MARKERS.len()],
    /// The markers not seen yet, one bit each.
    unseen: u32,
    /// The number after each word-limit phrase as far as it has been read:
    /// digits folded base 10 from `Some(0)`, `None` once they overflow.
    limits: [Option<usize>; 3],
    /// Whether that digit run reached the end of the text so far, so the
    /// next chunk may continue it.
    limits_open: [bool; 3],
    /// Original offset of each item marker's last occurrence, or [`NONE`].
    items: [usize; ITEM_MARKERS.len()],
    /// Original offset of [`ORDER_HEADER`]'s first occurrence, or [`NONE`].
    order_at: usize,
    /// Whitespace-separated words so far, and whether the text so far ends
    /// inside one.
    words: usize,
    in_word: bool,
    /// Bytes fed so far, in original and in lowered coordinates.
    original_len: usize,
    lowered_len: usize,
    carry: Tail<CARRY>,
    item_carry: Tail<ITEM_CARRY>,
}

impl Default for TaskScan {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskScan {
    /// The scan of the empty text.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            first: [NONE; MARKERS.len()],
            unseen: (1 << MARKERS.len()) - 1,
            limits: [None; 3],
            limits_open: [false; 3],
            items: [NONE; ITEM_MARKERS.len()],
            order_at: NONE,
            words: 0,
            in_word: false,
            original_len: 0,
            lowered_len: 0,
            carry: Tail::EMPTY,
            item_carry: Tail::EMPTY,
        }
    }

    /// The scan of `prompt` fed as one chunk.
    #[must_use]
    pub fn of(prompt: &str) -> Self {
        let mut scan = Self::new();
        scan.feed(prompt);
        scan
    }

    /// Continue the scan over the next chunk of the prompt.
    pub fn feed(&mut self, chunk: &str) {
        self.count_words(chunk);
        self.scan_items(chunk);
        LOWERED.with(|window| {
            let window = &mut *window.borrow_mut();
            window.clear();
            window.push_str(self.carry.text());
            let carried = window.len();
            lowercase_into(chunk, window);
            self.scan_lowered(window.as_bytes(), carried);
        });
    }

    /// Count the words that start in `chunk`, splitting at
    /// `char::is_whitespace` as `split_whitespace` does.
    fn count_words(&mut self, chunk: &str) {
        let bytes = chunk.as_bytes();
        let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) else {
            return;
        };
        if chunk.is_ascii() {
            self.words += usize::from(!self.in_word && !ascii_space(first)) + word_starts(bytes);
            self.in_word = !ascii_space(last);
        } else {
            for c in chunk.chars() {
                let space = c.is_whitespace();
                self.words += usize::from(!space && !self.in_word);
                self.in_word = !space;
            }
        }
    }

    /// Record every item marker, and the first [`ORDER_HEADER`], that ends
    /// in `chunk`.
    fn scan_items(&mut self, chunk: &str) {
        for (colon, _) in chunk.match_indices(':') {
            let upto = &chunk.as_bytes()[..=colon];
            let starts = |marker: &str| self.original_len + upto.len() - marker.len();
            for (k, marker) in ITEM_MARKERS.iter().enumerate() {
                if ends_with_split(self.item_carry.bytes(), upto, marker.as_bytes()) {
                    self.items[k] = starts(marker);
                }
            }
            if self.order_at == NONE
                && ends_with_split(self.item_carry.bytes(), upto, ORDER_HEADER.as_bytes())
            {
                self.order_at = starts(ORDER_HEADER);
            }
        }
        self.item_carry.push(chunk.as_bytes());
        self.original_len += chunk.len();
    }

    /// Record the first occurrence of each unseen marker in `window`, the
    /// `carried` bytes of the carry followed by the lowered chunk. An unseen
    /// marker cannot lie wholly inside the carry — the previous window held
    /// it — so every match here is new.
    fn scan_lowered(&mut self, window: &[u8], carried: usize) {
        let base = self.lowered_len - carried;
        let chunk = &window[carried..];
        for k in 0..3 {
            if self.limits_open[k] {
                self.read_digits(k, chunk);
            }
        }
        let mut from = 0;
        while let Some((at, m)) = next_marker(window, from, self.unseen) {
            self.first[m] = base + at;
            self.unseen &= !(1 << m);
            if m >= LIMIT_PHRASES {
                let k = m - LIMIT_PHRASES;
                self.limits[k] = Some(0);
                self.limits_open[k] = true;
                self.read_digits(k, &window[at + MARKERS[m].len()..]);
            }
            // Another marker may start at the same position.
            from = at;
        }
        self.lowered_len = base + window.len();
        self.carry.push(chunk);
    }

    /// Fold the digits at the start of `bytes` into word limit `k`, closing
    /// it at the first non-digit.
    fn read_digits(&mut self, k: usize, bytes: &[u8]) {
        for &b in bytes {
            if !b.is_ascii_digit() {
                self.limits_open[k] = false;
                return;
            }
            self.limits[k] = self.limits[k]
                .and_then(|n| n.checked_mul(10))
                .and_then(|n| n.checked_add(usize::from(b - b'0')));
        }
    }

    fn has(&self, marker: Marker) -> bool {
        self.first[marker as usize] != NONE
    }

    fn at(&self, marker: Marker) -> Option<usize> {
        Some(self.first[marker as usize]).filter(|&at| at != NONE)
    }

    fn summarizes(&self) -> bool {
        self.has(Marker::Summarize) || self.has(Marker::CleanUp)
    }

    /// Route the prompt to a task. An explicit `options.task` hint wins;
    /// otherwise the prompt's wording decides.
    #[must_use]
    pub fn task(&self, hint: Option<&str>) -> TaskKind {
        let hinted = match hint {
            Some("summarize") => Some(TaskKind::Summarize),
            Some("classify_sentiment") => Some(TaskKind::ClassifySentiment),
            Some("classify_school_negative") => Some(TaskKind::ClassifySchoolNegative),
            Some("fused_map_filter") => Some(TaskKind::FusedMapFilter),
            Some("fused_filter_map") => Some(TaskKind::FusedFilterMap),
            Some("rewrite_prompt") => Some(TaskKind::RewritePrompt),
            Some("write_prompt") => Some(TaskKind::WritePrompt),
            Some("qa") => Some(TaskKind::Qa),
            _ => None,
        };
        if let Some(kind) = hinted {
            return kind;
        }
        if self.has(Marker::RewriteBlock) {
            return TaskKind::RewritePrompt;
        }
        if self.has(Marker::WriteAPrompt) || self.has(Marker::GenerateAPrompt) {
            return TaskKind::WritePrompt;
        }
        let summarizes = self.summarizes();
        let classifies = self.has(Marker::Sentiment) || self.has(Marker::Classify);
        let school = self.has(Marker::School);
        // Clinical QA outranks the generic summarize/classify routing: a
        // prompt about medication history is extractive QA even when it
        // says "summarize".
        if !classifies && (self.has(Marker::Medication) || self.has(Marker::Enoxaparin)) {
            return TaskKind::Qa;
        }
        match (summarizes, classifies) {
            (_, true) if school => TaskKind::ClassifySchoolNegative,
            (true, true) => {
                // Fusion order: which directive appears first.
                let s_at = self.at(Marker::Summarize).or(self.at(Marker::CleanUp));
                let c_at = self.at(Marker::Sentiment).or(self.at(Marker::Classify));
                if s_at <= c_at {
                    TaskKind::FusedMapFilter
                } else {
                    TaskKind::FusedFilterMap
                }
            }
            (true, false) => TaskKind::Summarize,
            (false, true) => TaskKind::ClassifySentiment,
            (false, false) => TaskKind::Generic,
        }
    }

    /// The prompt's structural features.
    #[must_use]
    pub fn features(&self) -> PromptFeatures {
        PromptFeatures {
            has_objective: self.has(Marker::Objective) || self.has(Marker::TheGoalIs),
            has_specificity: self.has(Marker::BeSpecific)
                || self.has(Marker::EveryRelevantDetail)
                || self.has(Marker::FocusOn),
            has_hint: self.has(Marker::StepByStep) || self.has(Marker::Reasoning),
            has_example: self.has(Marker::Example) && self.has(Marker::Output),
            has_word_limit: self.has(Marker::WordLimit)
                || self.has(Marker::AtMost)
                || self.has(Marker::NoMoreThan),
        }
    }

    /// The word limit ("at most N", "word limit of N", "no more than N"):
    /// the first of those phrases, in that order, whose first occurrence is
    /// followed by a positive number; `None` when unconstrained.
    #[must_use]
    pub fn word_limit(&self) -> Option<usize> {
        self.limits.iter().find_map(|&n| n.filter(|&n| n > 0))
    }

    /// The item under analysis in `prompt`, which must be the text this
    /// scan was fed: the text after the last occurrence of the first item
    /// marker present in priority order — any `Input:` beats a later
    /// `Tweet:`, which beats a later `Text:` — else the last non-empty line.
    #[must_use]
    pub fn item<'a>(&self, prompt: &'a str) -> &'a str {
        for (&at, marker) in self.items.iter().zip(ITEM_MARKERS) {
            if at != NONE {
                return prompt[at + marker.len()..].trim();
            }
        }
        prompt
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("")
            .trim()
    }

    /// Run task `kind` over `prompt`, which must be the text this scan was
    /// fed.
    #[must_use]
    pub fn run(&self, kind: TaskKind, prompt: &str, params: &TaskParams<'_>) -> TaskOutcome {
        match kind {
            TaskKind::Summarize => summarize(self.item(prompt), self),
            TaskKind::ClassifySentiment => classify(self.item(prompt), self, params, kind, false),
            TaskKind::ClassifySchoolNegative => {
                classify(self.item(prompt), self, params, kind, true)
            }
            TaskKind::FusedMapFilter | TaskKind::FusedFilterMap => {
                fused(self.item(prompt), self, params, kind)
            }
            TaskKind::RewritePrompt => rewrite_prompt(prompt),
            TaskKind::WritePrompt => write_prompt(prompt),
            TaskKind::Qa => qa(prompt, self),
            TaskKind::Generic => generic(prompt, self),
        }
    }
}

/// Uniform draw in `[0, 1)` from a hash.
fn hash01(x: u64) -> f64 {
    (fnv1a(&x.to_le_bytes()) >> 11) as f64 / (1u64 << 53) as f64
}

/// Strip social-media noise and enforce a word limit — the Map behaviour.
fn clean(text: &str, word_limit: usize) -> String {
    text.split_whitespace()
        .filter(|w| !w.starts_with('@') && !w.starts_with('#') && !w.starts_with("http"))
        .take(word_limit)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Execution parameters the engine passes in.
#[derive(Debug, Clone, Copy)]
pub struct TaskParams<'a> {
    /// Model profile in force.
    pub profile: &'a ModelProfile,
    /// Whether the request carried a structured prompt identity.
    pub structured_identity: bool,
    /// Engine seed (varies runs while keeping them reproducible).
    pub seed: u64,
}

fn correctness_probability(
    kind: TaskKind,
    features: PromptFeatures,
    params: &TaskParams<'_>,
) -> (f64, PromptFeatures) {
    let w = &params.profile.quality;
    let mut p = params.profile.base_accuracy(kind) + w.bonus(&features, params.structured_identity);
    match kind {
        TaskKind::FusedMapFilter => p -= w.fused_map_filter_penalty,
        TaskKind::FusedFilterMap => p -= w.fused_filter_map_penalty,
        _ => {}
    }
    (p.clamp(0.02, 0.995), features)
}

/// Deterministic Bernoulli seeded by item × model × features × run seed.
fn draw(item: &str, model: &str, features: PromptFeatures, seed: u64, salt: u64) -> f64 {
    hash01(
        fnv1a(item.as_bytes())
            ^ fnv1a(model.as_bytes()).rotate_left(17)
            ^ features.fingerprint().rotate_left(31)
            ^ seed.rotate_left(43)
            ^ salt,
    )
}

/// Sentiment decision over the item: returns `(is_negative, lexicon
/// strength)`. A zero-signal item is decided by an item-hash coin — the
/// irreducible error source.
fn lexicon_negative(item: &str) -> (bool, i32) {
    let score = vocab::sentiment_score(item);
    if score == 0 {
        (fnv1a(item.as_bytes()) & 1 == 0, 0)
    } else {
        (score < 0, score.abs())
    }
}

fn confidence_for(p: f64, strength: i32, jitter_seed: u64) -> f64 {
    let jitter = (hash01(jitter_seed) - 0.5) * 0.08;
    (p - 0.18 + 0.06 * f64::from(strength.min(3)) + jitter).clamp(0.05, 0.99)
}

fn classify(
    item: &str,
    scan: &TaskScan,
    params: &TaskParams<'_>,
    kind: TaskKind,
    school: bool,
) -> TaskOutcome {
    let (p, features) = correctness_probability(kind, scan.features(), params);
    let (neg, strength) = lexicon_negative(item);
    let r = draw(item, &params.profile.name, features, params.seed, 0xC1A5);
    let decided_negative = if r < p { neg } else { !neg };
    let text = if school {
        // The refined task: negative AND school-related. Topic detection is
        // reliable (school words are unambiguous); polarity carries the
        // error.
        let matches = decided_negative && vocab::is_school_related(item);
        let label = if matches { "yes" } else { "no" };
        // The Table 3 pipeline also summarizes (the Map half of view V):
        // when the prompt carries a summarize directive, emit the summary
        // after the label so decode cost reflects the real output.
        if scan.summarizes() {
            let limit = scan.word_limit().unwrap_or(25);
            format!(
                "{label} :: {} — decided after weighing the overall tone, the \
                 dominant subject, and the school-topic wording of the tweet \
                 against the stated selection criteria",
                clean(item, limit)
            )
        } else {
            label.to_string()
        }
    } else {
        let label = if decided_negative {
            "negative"
        } else {
            "positive"
        };
        // Filters asked for a justification decode a sentence, not a word.
        if scan.has(Marker::Justification) {
            format!("{label} — clearly {label} wording about the main subject")
        } else {
            label.to_string()
        }
    };
    TaskOutcome {
        confidence: confidence_for(p, strength, fnv1a(item.as_bytes()) ^ 0xBEEF),
        text,
    }
}

fn summarize(item: &str, scan: &TaskScan) -> TaskOutcome {
    TaskOutcome {
        confidence: 0.9,
        text: clean(item, scan.word_limit().unwrap_or(25)),
    }
}

fn fused(item: &str, scan: &TaskScan, params: &TaskParams<'_>, kind: TaskKind) -> TaskOutcome {
    let limit = scan.word_limit().unwrap_or(25);
    let (p, features) = correctness_probability(kind, scan.features(), params);
    let (neg, strength) = lexicon_negative(item);
    let r = draw(item, &params.profile.name, features, params.seed, 0xF05E);
    let decided_negative = if r < p { neg } else { !neg };
    let label = if decided_negative {
        "negative"
    } else {
        "positive"
    };
    let tail = if scan.has(Marker::Justification) {
        " — checked"
    } else {
        ""
    };
    TaskOutcome {
        confidence: confidence_for(p, strength, fnv1a(item.as_bytes()) ^ 0xFACE),
        text: format!("{label} :: {}{tail}", clean(item, limit)),
    }
}

/// Parse a fused response back into `(is_negative, summary)`.
#[must_use]
pub fn parse_fused(text: &str) -> Option<(bool, &str)> {
    let (label, summary) = text.split_once(" :: ")?;
    match label {
        "negative" => Some((true, summary)),
        "positive" => Some((false, summary)),
        _ => None,
    }
}

/// Assisted/auto refinement: rewrite the prompt following `--- PROMPT ---`.
///
/// The rewrite preserves a prefix of the original verbatim and *rewrites*
/// (not drops) the remainder — mirroring how LLM rewrites keep the overall
/// scaffold and length but re-word the tail. The preserved fraction depends
/// on how invasive the instruction is: objective-level rewrites (the Auto
/// mode of Table 3, which merges the original instruction with a task
/// objective) restructure more of the text than targeted hints (Assisted).
/// Those fractions (0.82 / 0.92) drive the paper's cache-hit ladder.
fn rewrite_prompt(prompt: &str) -> TaskOutcome {
    let original = prompt
        .split("--- PROMPT ---")
        .nth(1)
        .unwrap_or(prompt)
        .trim();
    let instruction = prompt
        .split("apply this instruction:")
        .nth(1)
        .and_then(|s| s.split('\n').next())
        .unwrap_or("improve clarity")
        .trim();
    let objective_mode = instruction.to_lowercase().contains("objective");
    let keep_fraction = if objective_mode { 82 } else { 92 };

    // Cut at a word boundary near the preservation fraction (the target
    // backs off to a char boundary first).
    let mut cut_target = original.len() * keep_fraction / 100;
    while !original.is_char_boundary(cut_target) {
        cut_target -= 1;
    }
    let cut = original[..cut_target]
        .rfind(char::is_whitespace)
        .unwrap_or(original.len());
    let head = original[..cut].trim_end();
    let tail_words = original[cut..].split_whitespace().count();

    // Re-worded tail of comparable length (filler keeps the token count —
    // and therefore prefill cost — comparable to the original).
    let filler_unit = "ensure the selection criteria and output format above are applied";
    let mut rewritten_tail = String::new();
    let unit_words = filler_unit.split_whitespace().count();
    let mut written = 0;
    while written + unit_words <= tail_words {
        rewritten_tail.push_str(filler_unit);
        rewritten_tail.push(' ');
        written += unit_words;
    }

    let closing = if objective_mode {
        format!("Objective: {instruction}. Respond within the stated word limit.")
    } else {
        format!(
            "Apply careful reasoning to {instruction}. Respond within the \
             stated word limit."
        )
    };
    TaskOutcome {
        text: format!("{head} {rewritten_tail}{closing}"),
        confidence: 0.88,
    }
}

const GENERATED_GUIDELINES: &[&str] = &[
    "Read the entire tweet before deciding and weigh every clause, including \
     trailing qualifiers, emoticons, and elongated words that often carry the \
     author's real attitude.",
    "Treat sarcasm and irony carefully: praise of an obviously bad situation \
     should be read as criticism of that situation rather than genuine approval.",
    "Ignore usernames, hashtags, and links when judging the content, but keep \
     any sentiment they imply about the subject under discussion.",
    "When several subjects appear, decide based on the subject the author \
     spends the most words on, not the one mentioned first.",
    "If the tweet quotes someone else, classify the author's attitude toward \
     the quote rather than the quote itself.",
    "Prefer the literal wording over world knowledge: the author's stated \
     experience decides the label even when it seems unusual.",
    "Keep the cleaned rendering faithful: drop decorations and repair obvious \
     typos without adding, softening, or strengthening any claim.",
    "Return the answer in the requested format with no preamble, no \
     explanation beyond what the format asks for, and no trailing commentary.",
];

/// Agentic rewrite: write a task prompt from scratch given an objective.
/// Models how LLMs produce verbose, guideline-heavy prompts when asked to
/// write one: the output restates the objective and expands it into a full
/// instruction block with a per-item placeholder.
fn write_prompt(prompt: &str) -> TaskOutcome {
    let objective = prompt
        .split("Objective:")
        .nth(1)
        .and_then(|s| s.split('\n').next())
        .unwrap_or("complete the task")
        .trim();
    let mut text = format!(
        "Objective: {objective}.\n\
         You are given one tweet per request. Decide whether it satisfies the \
         objective, summarize the content you relied on, and classify the \
         sentiment where relevant.\nGuidelines:\n"
    );
    for (i, g) in GENERATED_GUIDELINES.iter().take(6).enumerate() {
        text.push_str(&format!("{}. {g}\n", i + 1));
    }
    text.push_str(
        "Answer with the label followed by the cleaned content, using a word \
         limit of 60.\nTweet: {{{{ctx:tweet}}}}",
    );
    TaskOutcome {
        text,
        confidence: 0.85,
    }
}

/// Clinical QA: extract the sentence mentioning the drug; confidence rises
/// with hint/specificity features, enabling the §2 retry pattern.
fn qa(prompt: &str, scan: &TaskScan) -> TaskOutcome {
    let features = scan.features();
    let sentence = prompt.split(['.', '\n']).find(|s| {
        let s = s.to_lowercase();
        s.contains("enoxaparin") && s.contains("mg")
    });
    let mut confidence: f64 = 0.55;
    if features.has_hint {
        confidence += 0.2;
    }
    if features.has_specificity || scan.has(Marker::Dosage) || scan.has(Marker::Timing) {
        confidence += 0.15;
    }
    match sentence {
        Some(s) => {
            let s = s.trim().trim_start_matches("Notes:").trim();
            TaskOutcome {
                text: format!("Enoxaparin use documented: {}.", s.trim_end_matches('.')),
                confidence: confidence.min(0.97),
            }
        }
        None => TaskOutcome {
            text: "No Enoxaparin use documented in the provided context.".to_string(),
            confidence: (confidence - 0.1).max(0.05),
        },
    }
}

/// The generic answer over the scan of `prompt`: its word count, and for
/// a fused multi-section request the section labels after the header.
fn generic(prompt: &str, scan: &TaskScan) -> TaskOutcome {
    let words = scan.words;
    // Fused multi-section requests (the optimizer's GEN fusion appends
    // "Produce one section per requested output, in this order: a, b ...").
    if scan.order_at != NONE && prompt.contains("one section per requested output") {
        // The text up to the header's next occurrence.
        let rest = &prompt[scan.order_at + ORDER_HEADER.len()..];
        let rest = rest.find(ORDER_HEADER).map_or(rest, |end| &rest[..end]);
        let labels: Vec<&str> = rest
            .split('.')
            .next()
            .unwrap_or("")
            .split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        if !labels.is_empty() {
            let sections: Vec<String> = labels
                .iter()
                .map(|l| {
                    format!(
                        "{l}: the {l} supported by the record of this                              {words}-word request, stated in plain prose"
                    )
                })
                .collect();
            return TaskOutcome {
                text: sections.join("\n===\n"),
                confidence: 0.82,
            };
        }
    }
    TaskOutcome {
        text: format!(
            "The requested output, stated in plain prose from the provided              {words}-word material with the relevant details restated for              the reader."
        ),
        confidence: 0.7,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn qwen_params(seed: u64) -> (ModelProfile, u64) {
        (ModelProfile::qwen25_7b_instruct(), seed)
    }

    fn run_with(kind: TaskKind, prompt: &str, structured: bool, seed: u64) -> TaskOutcome {
        let (profile, seed) = qwen_params(seed);
        TaskScan::of(prompt).run(
            kind,
            prompt,
            &TaskParams {
                profile: &profile,
                structured_identity: structured,
                seed,
            },
        )
    }

    fn detect(hint: Option<&str>, prompt: &str) -> TaskKind {
        TaskScan::of(prompt).task(hint)
    }

    fn item_of(prompt: &str) -> &str {
        TaskScan::of(prompt).item(prompt)
    }

    #[test]
    fn detection_routes_by_hint_and_wording() {
        assert_eq!(detect(Some("summarize"), ""), TaskKind::Summarize);
        assert_eq!(
            detect(None, "Classify the sentiment of the tweet."),
            TaskKind::ClassifySentiment
        );
        assert_eq!(
            detect(None, "Summarize the tweet, then classify its sentiment."),
            TaskKind::FusedMapFilter
        );
        assert_eq!(
            detect(None, "Classify the sentiment, then summarize the tweet."),
            TaskKind::FusedFilterMap
        );
        assert_eq!(
            detect(
                None,
                "Classify whether the tweet is school related and negative."
            ),
            TaskKind::ClassifySchoolNegative
        );
        assert_eq!(
            detect(None, "Rewrite this.\n--- PROMPT ---\nold"),
            TaskKind::RewritePrompt
        );
        assert_eq!(
            detect(None, "Please write a prompt for ..."),
            TaskKind::WritePrompt
        );
        assert_eq!(
            detect(None, "Highlight the medication history."),
            TaskKind::Qa
        );
        assert_eq!(detect(None, "hello"), TaskKind::Generic);
    }

    const KINDS: [TaskKind; 9] = [
        TaskKind::Summarize,
        TaskKind::ClassifySentiment,
        TaskKind::ClassifySchoolNegative,
        TaskKind::FusedMapFilter,
        TaskKind::FusedFilterMap,
        TaskKind::RewritePrompt,
        TaskKind::WritePrompt,
        TaskKind::Qa,
        TaskKind::Generic,
    ];

    /// The scan of `text` fed in the pieces that `cuts` (char indices)
    /// split it into.
    fn scan_in_pieces(text: &str, cuts: &[usize]) -> TaskScan {
        let mut bounds: Vec<usize> = cuts
            .iter()
            .filter_map(|&c| text.char_indices().nth(c).map(|(at, _)| at))
            .collect();
        bounds.sort_unstable();
        let mut scan = TaskScan::new();
        let mut from = 0;
        for to in bounds.into_iter().chain([text.len()]) {
            scan.feed(&text[from..to]);
            from = to;
        }
        scan
    }

    /// Everything the scan reports equals the whole-prompt reference.
    fn assert_matches_reference(text: &str, scan: &TaskScan, hint: Option<&str>) {
        let (profile, seed) = qwen_params(5);
        let params = TaskParams {
            profile: &profile,
            structured_identity: true,
            seed,
        };
        let lower = text.to_lowercase();
        assert_eq!(
            scan.task(hint),
            reference::detect_task_lowered(hint, &lower),
            "{text:?}"
        );
        assert_eq!(scan.features(), PromptFeatures::detect(text), "{text:?}");
        assert_eq!(
            scan.word_limit(),
            reference::parse_word_limit_lowered(&lower),
            "{text:?}"
        );
        assert_eq!(scan.item(text), reference::extract_input(text), "{text:?}");
        assert_eq!(
            scan.run(scan.task(hint), text, &params),
            reference::detect_and_run(hint, text, &params),
            "{text:?}"
        );
        for kind in KINDS {
            assert_eq!(
                scan.run(kind, text, &params),
                reference::run_lowered(kind, text, &lower, &params),
                "{kind:?} over {text:?}"
            );
        }
    }

    /// Whitespace beyond the space and newline: the rest of ASCII's, then
    /// Unicode's next line, no-break, em and ideographic spaces.
    const SPACES: [&str; 8] = [
        "\t", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}", "\u{2003}", "\u{3000}",
    ];

    /// A marker (or item marker, or word-limit phrase, or the fused-section
    /// header) in lower, upper or title case, a digit run, plain words, the
    /// header's other pieces, ASCII and Unicode whitespace, fold edge cases
    /// or any char.
    fn piece() -> impl Strategy<Value = String> {
        let colon_ended: Vec<&str> = ITEM_MARKERS.into_iter().chain([ORDER_HEADER]).collect();
        let marker = (0..MARKERS.len() + colon_ended.len(), 0..3u8).prop_map(move |(m, case)| {
            let text = MARKERS
                .get(m)
                .copied()
                .unwrap_or_else(|| colon_ended[m - MARKERS.len()]);
            match case {
                0 => text.to_string(),
                1 => text.to_uppercase(),
                _ => text[..1].to_uppercase() + &text[1..],
            }
        });
        prop_oneof![
            4 => marker,
            2 => "[0-9]{1,3}",
            1 => Just("0".repeat(24) + "7"),
            1 => Just("9".repeat(25)),
            2 => "[a-zA-Z]{1,6}",
            2 => Just(" ".to_string()),
            1 => Just("\n".to_string()),
            1 => Just(". ".to_string()),
            1 => Just(ORDER_HEADER.to_string()),
            1 => Just("one section per requested output".to_string()),
            1 => Just(",".to_string()),
            1 => Just(".".to_string()),
            2 => (0..SPACES.len()).prop_map(|k| SPACES[k].to_string()),
            1 => Just("mg".to_string()),
            1 => Just("Σ".to_string()),
            1 => Just("ΟΔΟΣ".to_string()),
            1 => Just("İ".to_string()),
            1 => Just("\u{212A}".to_string()),
            1 => Just("ẞ".to_string()),
            2 => any::<u32>()
                .prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}').to_string()),
        ]
    }

    fn hint() -> impl Strategy<Value = Option<&'static str>> {
        prop_oneof![
            6 => Just(None),
            1 => Just(Some("summarize")),
            1 => Just(Some("classify_school_negative")),
            1 => Just(Some("fused_filter_map")),
            1 => Just(Some("qa")),
            1 => Just(Some("not_a_task")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over arbitrary Unicode text cut at arbitrary char boundaries,
        /// the scan gives exactly the whole-prompt reference's task,
        /// features, word limit, item and outcome.
        #[test]
        fn scan_over_any_chunking_matches_the_whole_prompt_reference(
            pieces in proptest::collection::vec(piece(), 0..24),
            cuts in proptest::collection::vec(0..96usize, 0..8),
            hint in hint(),
        ) {
            let text = pieces.concat();
            assert_matches_reference(&text, &scan_in_pieces(&text, &cuts), hint);
        }
    }

    #[test]
    fn markers_split_across_chunks_are_found_once() {
        let text = "Please summarize, then classify. At most 12 words.\nInput: a\nTweet: b";
        for at in 0..=text.len() {
            assert_matches_reference(text, &scan_in_pieces(text, &[at]), None);
        }
        // Every char its own chunk: digit runs and markers cross every cut.
        let every: Vec<usize> = (0..text.len()).collect();
        let scan = scan_in_pieces(text, &every);
        assert_eq!(scan.task(None), TaskKind::FusedMapFilter);
        assert_eq!(scan.word_limit(), Some(12));
        assert_eq!(
            scan.item(text),
            "a\nTweet: b",
            "any Input: beats a later Tweet:"
        );
    }

    /// The generic answer over `text` fed in two chunks cut at byte `at`.
    fn generic_in_two(text: &str, at: usize) -> TaskOutcome {
        let (profile, seed) = qwen_params(5);
        let params = TaskParams {
            profile: &profile,
            structured_identity: true,
            seed,
        };
        let mut scan = TaskScan::new();
        scan.feed(&text[..at]);
        scan.feed(&text[at..]);
        scan.run(TaskKind::Generic, text, &params)
    }

    #[test]
    fn a_fused_header_split_across_two_chunks_is_found() {
        let text = "Answer both. Produce one section per requested output, in this order: \
                    summary, label. Then stop.";
        let header = text.find(ORDER_HEADER).unwrap();
        for at in header..=header + ORDER_HEADER.len() {
            let out = generic_in_two(text, at);
            assert_eq!(out.confidence, 0.82, "cut at {at}");
            assert!(out.text.starts_with("summary: ") && out.text.contains("\n===\nlabel: "));
            assert_matches_reference(text, &scan_in_pieces(text, &[at]), None);
        }
    }

    #[test]
    fn a_second_fused_header_ends_the_labels_of_the_first() {
        let text = "Produce one section per requested output, in this order: a, b \
                    in this order: c, d.";
        let out = generic_in_two(text, text.len() / 2);
        assert_eq!(
            out.text.lines().filter(|l| *l != "===").count(),
            2,
            "{:?}",
            out.text
        );
        assert!(out.text.starts_with("a: ") && out.text.contains("\n===\nb: "));
        assert_eq!(
            TaskScan::of(text).order_at,
            text.find(ORDER_HEADER).unwrap()
        );
        assert_matches_reference(text, &TaskScan::of(text), None);
    }

    #[test]
    fn a_word_split_across_chunks_counts_once() {
        let text = "alpha beta\x0Bgamma\u{3000}delta";
        for at in text.char_indices().map(|(at, _)| at).chain([text.len()]) {
            let mut scan = TaskScan::new();
            scan.feed(&text[..at]);
            scan.feed(&text[at..]);
            assert_eq!(scan.words, 4, "cut at {at}");
            assert_matches_reference(text, &scan, None);
        }
        // ASCII chunks longer than one 255-pair block of the word count,
        // with words and runs of spaces across every block edge.
        let long = "ab \x0B c\td  ".repeat(90);
        for at in [0, 1, 254, 255, 256, 510, 511, long.len() - 1] {
            let mut scan = TaskScan::new();
            scan.feed(&long[..at]);
            scan.feed(&long[at..]);
            assert_eq!(scan.words, 270, "cut at {at}");
        }
    }

    #[test]
    fn chunkwise_lowering_is_exact_at_context_and_length_changing_folds() {
        // Final sigma folds to ς in the whole string and to σ chunk by
        // chunk; both are two non-ASCII bytes, so lowered offsets agree.
        // İ grows to three bytes, the Kelvin sign shrinks to ASCII `k`
        // and ẞ shrinks to two bytes.
        for text in [
            "ΟΔΟΣ classify ΟΔΟΣ. summarize\nTweet: rain",
            "ΣΣ summarize İİİ classify at most 4 words\nText: sun",
            "\u{212A}\u{212A} clean up ẞẞ sentiment no more than 3\nInput: x y z w",
            "İnput: not a marker\nTEXT: nor this\nText: this",
        ] {
            let every: Vec<usize> = (0..text.chars().count()).collect();
            assert_matches_reference(text, &TaskScan::of(text), None);
            assert_matches_reference(text, &scan_in_pieces(text, &every), None);
        }
    }

    #[test]
    fn a_resumed_copy_continues_where_the_prefix_stopped() {
        let prefix = "Summarize and classify the sentiment. Use at most 1";
        let mut interned = TaskScan::new();
        interned.feed(prefix);
        for suffix in ["5 words.\nTweet: rain", " words.\nTweet: sun"] {
            let mut scan = interned;
            scan.feed(suffix);
            let text = format!("{prefix}{suffix}");
            assert_matches_reference(&text, &scan, None);
        }
    }

    #[test]
    fn input_extraction_prefers_markers() {
        assert_eq!(item_of("Classify.\nTweet: rain again"), "rain again");
        assert_eq!(
            item_of("a\nInput: first\nInput: second"),
            "second",
            "last marker wins"
        );
        assert_eq!(
            item_of("a\nInput: first\nTweet: later"),
            "first\nTweet: later",
            "markers are tried in priority order: any Input: beats a later Tweet:"
        );
        assert_eq!(item_of("only line"), "only line");
    }

    #[test]
    fn word_limit_parsing() {
        assert_eq!(TaskScan::of("use at most 30 words").word_limit(), Some(30));
        assert_eq!(
            TaskScan::of("a word limit of 12 applies").word_limit(),
            Some(12)
        );
        assert_eq!(TaskScan::of("no more than 5 words").word_limit(), Some(5));
        assert_eq!(TaskScan::of("unconstrained").word_limit(), None);
    }

    #[test]
    fn classify_is_deterministic_and_polarity_driven() {
        let prompt =
            "Classify the sentiment. Respond with one word.\nTweet: i hate this awful rain";
        let a = run_with(TaskKind::ClassifySentiment, prompt, false, 1);
        let b = run_with(TaskKind::ClassifySentiment, prompt, false, 1);
        assert_eq!(a, b);
        assert_eq!(a.text, "negative");
    }

    #[test]
    fn better_prompts_raise_accuracy_over_a_corpus() {
        // Over many items, a prompt with objective+structure flips fewer
        // decisions than the plain one.
        let base = "Classify the sentiment. Respond with one word.";
        let rich = "Objective: identify negative tweets. Classify the sentiment. \
                    Be specific. Respond with one word.";
        let mut plain_correct = 0;
        let mut rich_correct = 0;
        let n = 600;
        for i in 0..n {
            let negative = i % 2 == 0;
            let word = if negative { "awful" } else { "great" };
            let tweet = format!("what a {word} day number {i}");
            for (prompt_text, counter) in [(base, &mut plain_correct), (rich, &mut rich_correct)] {
                let p = format!("{prompt_text}\nTweet: {tweet}");
                let out = run_with(TaskKind::ClassifySentiment, &p, prompt_text == rich, 7);
                if (out.text == "negative") == negative {
                    *counter += 1;
                }
            }
        }
        assert!(
            rich_correct > plain_correct,
            "rich {rich_correct} vs plain {plain_correct}"
        );
    }

    #[test]
    fn fusion_penalty_lowers_accuracy() {
        let mut seq_correct = 0;
        let mut fused_correct = 0;
        let n = 800;
        for i in 0..n {
            let negative = i % 2 == 0;
            let word = if negative { "terrible" } else { "wonderful" };
            let tweet = format!("such a {word} commute today {i}");
            let seq_prompt = format!("Classify the sentiment.\nTweet: {tweet}");
            let fused_prompt =
                format!("Summarize the tweet, then classify its sentiment.\nTweet: {tweet}");
            let s = run_with(TaskKind::ClassifySentiment, &seq_prompt, true, 3);
            let f = run_with(TaskKind::FusedMapFilter, &fused_prompt, true, 3);
            if (s.text == "negative") == negative {
                seq_correct += 1;
            }
            if parse_fused(&f.text).map(|(n, _)| n) == Some(negative) {
                fused_correct += 1;
            }
        }
        let drop = (seq_correct - fused_correct) as f64 / n as f64;
        assert!(
            (0.02..=0.09).contains(&drop),
            "fusion accuracy drop {drop} (seq {seq_correct}, fused {fused_correct})"
        );
    }

    #[test]
    fn school_task_requires_both_conditions() {
        let neg_school = "Classify: school-related and negative?\nTweet: i hate this exam so much";
        let neg_other = "Classify: school-related and negative?\nTweet: i hate this rain so much";
        let a = run_with(TaskKind::ClassifySchoolNegative, neg_school, true, 1);
        let b = run_with(TaskKind::ClassifySchoolNegative, neg_other, true, 1);
        assert_eq!(a.text, "yes");
        assert_eq!(b.text, "no");
    }

    #[test]
    fn summarize_cleans_noise_and_respects_limit() {
        let out = run_with(
            TaskKind::Summarize,
            "Summarize. Use at most 4 words.\nTweet: @bob terrible day at work #fml http://t.co/x",
            false,
            1,
        );
        assert_eq!(out.text, "terrible day at work");
    }

    #[test]
    fn rewrite_preserves_most_of_the_prefix() {
        let original = "Classify the sentiment of the tweet as positive or negative. \
                        Consider the overall tone, sarcasm, and emphatic punctuation. \
                        Respond with exactly one word and a word limit of one. \
                        Tweet: {{ctx:tweet}}";
        let meta = format!(
            "Rewrite the following prompt. Keep its task and constraints; \
             apply this instruction: focus on school-related content\n--- PROMPT ---\n{original}"
        );
        let out = run_with(TaskKind::RewritePrompt, &meta, false, 1);
        let common = original
            .chars()
            .zip(out.text.chars())
            .take_while(|(a, b)| a == b)
            .count();
        let frac = common as f64 / original.chars().count() as f64;
        assert!((0.75..0.95).contains(&frac), "prefix preservation {frac}");
        assert!(out.text.contains("school-related"));
    }

    #[test]
    fn write_prompt_embeds_objective_and_placeholder() {
        let out = run_with(
            TaskKind::WritePrompt,
            "Please write a prompt.\nObjective: find negative school tweets",
            false,
            1,
        );
        assert!(out.text.contains("Objective: find negative school tweets"));
        assert!(out.text.contains("{{ctx:tweet}}"));
    }

    #[test]
    fn qa_extracts_drug_sentence_and_hints_raise_confidence() {
        let notes = "Medications: enoxaparin 40 mg SC daily for DVT prophylaxis. \
                     Also on lisinopril.";
        let plain = format!("Highlight any use of Enoxaparin.\nNotes: {notes}");
        let hinted = format!(
            "Highlight any use of Enoxaparin. Think step by step about dosage \
             and timing.\nNotes: {notes}"
        );
        let a = run_with(TaskKind::Qa, &plain, false, 1);
        let b = run_with(TaskKind::Qa, &hinted, false, 1);
        assert!(a.text.contains("40 mg"));
        assert!(b.confidence > a.confidence);

        let missing = run_with(
            TaskKind::Qa,
            "Highlight Enoxaparin.\nNotes: on aspirin",
            false,
            1,
        );
        assert!(missing.text.contains("No Enoxaparin"));
    }

    #[test]
    fn parse_fused_roundtrip() {
        assert_eq!(
            parse_fused("negative :: short text"),
            Some((true, "short text"))
        );
        assert_eq!(parse_fused("positive :: x"), Some((false, "x")));
        assert_eq!(parse_fused("garbage"), None);
    }
}
