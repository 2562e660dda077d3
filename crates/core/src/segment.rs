//! Content-hashed prompt segments.
//!
//! A rendered prompt is not an undifferentiated string: the template
//! renderer produces it as an ordered sequence of literal fragments (the
//! shared view/instruction prefix) and resolved placeholder values (the
//! per-request payload). [`SegmentedText`] preserves that structure —
//! each segment carries a stable FNV-1a content hash — so the engine can
//! recognize a shared prefix *by identity* and reuse its tokenization and
//! block hashes instead of re-deriving them from the flat string on every
//! request (see `spear-llm`'s `TokenInterner`).
//!
//! Segments are `Arc<str>`, so a literal that appears in every request of
//! a prompt family is one allocation for the process, not one per request.
//!
//! The joined text ([`SegmentedText::join`]) is always byte-identical to
//! the flat rendering; segmentation is a pure annotation and never changes
//! what the model sees.

use std::sync::Arc;

use spear_kv::shard::fnv1a;

/// One contiguous piece of rendered prompt text with its content hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextSegment {
    text: Arc<str>,
    hash: u64,
    literal: bool,
}

impl TextSegment {
    /// A per-request value segment (a resolved placeholder); the hash is
    /// computed here.
    #[must_use]
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        let text = text.into();
        let hash = fnv1a(text.as_bytes());
        Self {
            text,
            hash,
            literal: false,
        }
    }

    /// A template-literal segment from a pre-hashed shared string (a
    /// template's parse hashes each literal once, when the prompt text is
    /// made; a literal an append extends resumes its hash). `hash` must be
    /// `fnv1a(text.as_bytes())`.
    #[must_use]
    pub fn from_shared(text: Arc<str>, hash: u64) -> Self {
        debug_assert_eq!(hash, fnv1a(text.as_bytes()));
        Self {
            text,
            hash,
            literal: true,
        }
    }

    /// Whether this segment is a template literal — text that recurs
    /// verbatim across every render of the template, as opposed to a
    /// per-request placeholder value. Memoization layers use this to
    /// decide which segment chains are worth retaining.
    #[must_use]
    pub fn is_literal(&self) -> bool {
        self.literal
    }

    /// The segment's text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Stable FNV-1a hash of the text bytes.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// An ordered list of content-hashed segments whose concatenation is the
/// rendered prompt. Empty segments are dropped on push — they cannot affect
/// the joined text or its tokenization, and skipping them keeps segment
/// chains canonical (the same prefix always yields the same hash chain).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentedText {
    segments: Vec<TextSegment>,
}

impl SegmentedText {
    /// An empty segment list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-segment text.
    #[must_use]
    pub fn from_text(text: impl Into<Arc<str>>) -> Self {
        let mut s = Self::new();
        s.push(text);
        s
    }

    /// Append a segment (no-op for empty text).
    pub fn push(&mut self, text: impl Into<Arc<str>>) {
        let text = text.into();
        if !text.is_empty() {
            self.segments.push(TextSegment::new(text));
        }
    }

    /// Append a pre-built segment (no-op for empty text).
    pub fn push_segment(&mut self, segment: TextSegment) {
        if !segment.text.is_empty() {
            self.segments.push(segment);
        }
    }

    /// The segments, in order.
    #[must_use]
    pub fn segments(&self) -> &[TextSegment] {
        &self.segments
    }

    /// Number of segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there are no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total byte length of the joined text.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.segments.iter().map(|s| s.text.len()).sum()
    }

    /// Concatenate the segments into the flat rendered prompt.
    #[must_use]
    pub fn join(&self) -> String {
        let mut out = String::with_capacity(self.byte_len());
        for seg in &self.segments {
            out.push_str(&seg.text);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_the_concatenation() {
        let mut s = SegmentedText::new();
        s.push("You are a helpful assistant.\n");
        s.push("Item: ");
        s.push("case 7: ledger gasket");
        assert_eq!(
            s.join(),
            "You are a helpful assistant.\nItem: case 7: ledger gasket"
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.byte_len(), s.join().len());
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut s = SegmentedText::new();
        s.push("");
        s.push("a");
        s.push_segment(TextSegment::new(""));
        assert_eq!(s.len(), 1);
        let empty = SegmentedText::from_text("");
        assert!(empty.is_empty());
        assert_eq!(empty.join(), "");
    }

    #[test]
    fn hashes_are_content_determined() {
        let a = TextSegment::new("shared instruction");
        let b = TextSegment::new(String::from("shared instruction"));
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a, b);
        assert_ne!(a.hash(), TextSegment::new("shared instruction!").hash());
        assert_eq!(a.hash(), fnv1a(b"shared instruction"));
    }

    #[test]
    fn literal_flag_tracks_provenance() {
        assert!(!TextSegment::new("per-request value").is_literal());
        let lit: Arc<str> = Arc::from("template literal");
        let seg = TextSegment::from_shared(Arc::clone(&lit), fnv1a(lit.as_bytes()));
        assert!(seg.is_literal());
    }

    #[test]
    fn shared_segments_reuse_the_allocation() {
        let literal: Arc<str> = Arc::from("view prefix");
        let hash = fnv1a(literal.as_bytes());
        let a = TextSegment::from_shared(Arc::clone(&literal), hash);
        let b = TextSegment::from_shared(Arc::clone(&literal), hash);
        assert!(std::ptr::eq(a.text().as_ptr(), b.text().as_ptr()));
    }
}
