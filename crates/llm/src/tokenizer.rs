//! Deterministic approximate-BPE tokenizer.
//!
//! The simulator does not need a trained vocabulary — it needs token
//! *counts* and token *identity* that behave like a subword tokenizer:
//! identical text always yields identical token sequences (so prefix caching
//! works), long words split into several tokens, punctuation separates, and
//! counts land near the ~0.75 tokens/word … 1.3 tokens/word range of real
//! BPE on English text.
//!
//! Tokens are stable 64-bit ids (FNV-1a of the piece), so they survive
//! process restarts — a property the prefix cache's block hashing relies on.
//!
//! ## Zero-allocation hot path
//!
//! `Tokenizer::pieces`, the one code that splits text into pieces, yields
//! borrowed `&str` sub-slices of the input — no per-piece `String`, no
//! buffer `Vec` — so [`Tokenizer::count`] touches the heap not at all and
//! [`Tokenizer::encode_into`] only grows the caller's reusable token
//! buffer. [`StreamingEncoder`] extends the same guarantee to text arriving
//! in segments: feeding `"hel"` then `"lo"` produces exactly the tokens of
//! `"hello"`, because the encoder carries the unterminated word across
//! segment boundaries and hands the rest to `pieces`.

use spear_kv::shard::fnv1a;

/// A token id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Maximum characters per subword piece; longer words are chunked.
const MAX_PIECE_CHARS: usize = 6;

/// Is `ch` part of a word (alphanumeric run, apostrophes included)?
fn is_word_char(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '\''
}

/// Deterministic subword tokenizer.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// Create a tokenizer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Encode text into token ids.
    #[must_use]
    pub fn encode(&self, text: &str) -> Vec<Token> {
        let mut tokens = Vec::with_capacity(text.len() / 4 + 1);
        self.encode_append(text, &mut tokens);
        tokens
    }

    /// Encode text into a caller-owned buffer, clearing it first. The
    /// buffer's allocation is reused, so a loop over many prompts performs
    /// no per-prompt token allocation once the buffer has grown.
    pub fn encode_into(&self, text: &str, out: &mut Vec<Token>) {
        out.clear();
        self.encode_append(text, out);
    }

    /// Encode text, appending to `out` without clearing it.
    pub fn encode_append(&self, text: &str, out: &mut Vec<Token>) {
        for piece in Self::pieces(text) {
            out.push(Token(fnv1a(piece.as_bytes())));
        }
    }

    /// Number of tokens in `text`. Allocation-free: pieces are counted as
    /// borrowed slices, never materialized.
    #[must_use]
    pub fn count(&self, text: &str) -> usize {
        Self::pieces(text).count()
    }

    /// Split text into subword pieces: alphanumeric runs (chunked to at most
    /// [`MAX_PIECE_CHARS`] chars) and single punctuation marks; whitespace
    /// separates but does not emit tokens. Pieces are borrowed sub-slices of
    /// `text`, found in one forward pass.
    fn pieces(text: &str) -> impl Iterator<Item = &str> {
        let mut pos = 0;
        std::iter::from_fn(move || {
            let rest = &text[pos..];
            let mut chars = rest.char_indices();
            loop {
                let (start, ch) = chars.next()?;
                let mut end = start + ch.len_utf8();
                if is_word_char(ch) {
                    // A word chunks from its first char, so its next piece
                    // is the next run of at most MAX_PIECE_CHARS word chars.
                    for (offset, c) in chars.by_ref().take(MAX_PIECE_CHARS - 1) {
                        if !is_word_char(c) {
                            break;
                        }
                        end = offset + c.len_utf8();
                    }
                } else if ch.is_whitespace() {
                    continue;
                }
                pos += end;
                return Some(&rest[start..end]);
            }
        })
    }
}

/// Incremental encoder over a stream of text segments.
///
/// Tokenization is *not* naively segment-local: a word split across a
/// segment boundary ("hel" + "lo") must chunk as the whole word ("hello")
/// does. The encoder therefore buffers the trailing unterminated word of
/// each `feed` and prepends it to the next, guaranteeing that feeding any
/// segmentation of a text produces exactly [`Tokenizer::encode`]'s output
/// for the concatenation. The only state is that pending word, which is
/// also what makes memoizing a segment chain's tokens sound: chain tokens
/// plus the pending word fully determine how encoding continues.
#[derive(Debug, Default, Clone)]
pub struct StreamingEncoder {
    pending: String,
}

impl StreamingEncoder {
    /// A fresh encoder (no pending word).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            pending: String::new(),
        }
    }

    /// Reset to a given resume state: `pending` is the unterminated word a
    /// previous encoding of the same prefix left behind (see
    /// [`StreamingEncoder::pending`]). The internal buffer's allocation is
    /// reused.
    pub fn reset(&mut self, pending: &str) {
        self.pending.clear();
        self.pending.push_str(pending);
    }

    /// The trailing word-in-progress, not yet emitted as tokens.
    #[must_use]
    pub fn pending(&self) -> &str {
        &self.pending
    }

    /// Feed the next text segment, appending any completed tokens to `out`.
    pub fn feed(&mut self, text: &str, out: &mut Vec<Token>) {
        let mut rest = text;
        if !self.pending.is_empty() {
            // The pending word may continue into this segment.
            let body = text.trim_start_matches(is_word_char);
            self.pending.push_str(&text[..text.len() - body.len()]);
            if body.is_empty() {
                return; // the whole segment extended the word
            }
            self.finish(out);
            rest = body;
        }
        // Everything up to the trailing word is complete; that word might
        // continue in the next segment.
        let complete = rest.trim_end_matches(is_word_char);
        Tokenizer.encode_append(complete, out);
        self.pending.push_str(&rest[complete.len()..]);
    }

    /// End of stream: flush the pending word (if any). The encoder is reset
    /// and reusable afterwards.
    pub fn finish(&mut self, out: &mut Vec<Token>) {
        Tokenizer.encode_append(&self.pending, out);
        self.pending.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_deterministic() {
        let t = Tokenizer::new();
        let a = t.encode("Summarize the patient's medication history.");
        let b = t.encode("Summarize the patient's medication history.");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn count_matches_encode_len() {
        let t = Tokenizer::new();
        for text in [
            "",
            "one",
            "hello, world!",
            "antidisestablishmentarianism",
            "émoji 🦀 and CJK 漢字",
        ] {
            assert_eq!(t.count(text), t.encode(text).len(), "{text:?}");
        }
    }

    #[test]
    fn long_words_split_into_subwords() {
        let t = Tokenizer::new();
        // 28 chars -> ceil(28/6) = 5 pieces.
        assert_eq!(t.count("antidisestablishmentarianism"), 5);
        assert_eq!(t.count("cat"), 1);
    }

    #[test]
    fn punctuation_is_tokenized_separately() {
        let t = Tokenizer::new();
        assert_eq!(t.count("end."), 2);
        assert_eq!(t.count("a,b;c"), 5);
        assert_eq!(t.count("   "), 0);
    }

    #[test]
    fn shared_prefix_yields_shared_token_prefix() {
        let t = Tokenizer::new();
        let base = "Classify the sentiment of the tweet. Respond with one word.";
        let a = t.encode(&format!("{base} Tweet: great day"));
        let b = t.encode(&format!("{base} Tweet: awful day"));
        let common = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        let base_len = t.count(base);
        assert!(common >= base_len, "the instruction prefix must be shared");
    }

    #[test]
    fn token_rate_is_plausible_for_english() {
        let t = Tokenizer::new();
        let text = "The quick brown fox jumps over the lazy dog near the river bank \
                    while the evening sun sets slowly behind distant mountains";
        let words = text.split_whitespace().count();
        let tokens = t.count(text);
        let rate = tokens as f64 / words as f64;
        assert!((0.9..=1.8).contains(&rate), "rate {rate}");
    }

    #[test]
    fn apostrophes_stay_within_words() {
        let t = Tokenizer::new();
        assert_eq!(t.count("don't"), 1);
    }

    #[test]
    fn encode_into_reuses_the_buffer() {
        let t = Tokenizer::new();
        let mut buf = Vec::new();
        t.encode_into("hello, world!", &mut buf);
        assert_eq!(buf, t.encode("hello, world!"));
        let cap = buf.capacity();
        t.encode_into("tiny", &mut buf);
        assert_eq!(buf, t.encode("tiny"));
        assert_eq!(buf.capacity(), cap, "shrinking input must not reallocate");
    }

    #[test]
    fn pieces_are_borrowed_subslices() {
        // Multibyte text exercises every char-boundary computation.
        let text = "naïveté 🦀🦀🦀 — don't, per-request; 漢字漢字漢字漢字 end.";
        let t = Tokenizer::new();
        assert_eq!(t.count(text), t.encode(text).len());
        let joined_len: usize = Tokenizer::pieces(text).map(str::len).sum();
        assert!(joined_len <= text.len());
    }

    /// The piece rule spelled out: split at every char that is not a word
    /// char, drop whitespace, keep other marks as one piece each, and cut
    /// each word into runs of [`MAX_PIECE_CHARS`] chars from its start.
    fn reference_pieces(text: &str) -> Vec<String> {
        let mut pieces = Vec::new();
        let mut word = Vec::new();
        for ch in text.chars().chain([' ']) {
            if is_word_char(ch) {
                word.push(ch);
                continue;
            }
            pieces.extend(word.chunks(MAX_PIECE_CHARS).map(String::from_iter));
            word.clear();
            if !ch.is_whitespace() {
                pieces.push(ch.to_string());
            }
        }
        pieces
    }

    proptest::proptest! {
        #[test]
        fn pieces_follow_the_piece_rule(text in "[a-zA-Z0-9'éß漢🦀 \n.,;:!—-]{0,64}") {
            let got: Vec<&str> = Tokenizer::pieces(&text).collect();
            proptest::prop_assert_eq!(got, reference_pieces(&text));
        }
    }

    #[test]
    fn streaming_matches_whole_string_for_any_split() {
        let t = Tokenizer::new();
        let text = "Summarize the item: antidisestablishmentarianism, don't rush — 漢字!";
        let whole = t.encode(text);
        for split in 0..=text.len() {
            if !text.is_char_boundary(split) {
                continue;
            }
            let mut enc = StreamingEncoder::new();
            let mut out = Vec::new();
            enc.feed(&text[..split], &mut out);
            enc.feed(&text[split..], &mut out);
            enc.finish(&mut out);
            assert_eq!(out, whole, "split at byte {split}");
        }
    }

    #[test]
    fn streaming_resumes_from_pending_state() {
        let t = Tokenizer::new();
        // Encode "hello world" as "hel" + "lo world", resuming a second
        // encoder from the first's pending snapshot.
        let mut first = StreamingEncoder::new();
        let mut prefix_tokens = Vec::new();
        first.feed("hel", &mut prefix_tokens);
        assert_eq!(first.pending(), "hel");
        assert!(prefix_tokens.is_empty(), "unterminated word stays pending");

        let mut second = StreamingEncoder::new();
        second.reset(first.pending());
        let mut out = prefix_tokens;
        second.feed("lo world", &mut out);
        second.finish(&mut out);
        assert_eq!(out, t.encode("hello world"));
    }

    #[test]
    fn empty_feeds_do_not_terminate_words() {
        let t = Tokenizer::new();
        let mut enc = StreamingEncoder::new();
        let mut out = Vec::new();
        enc.feed("don", &mut out);
        enc.feed("", &mut out);
        enc.feed("'t stop", &mut out);
        enc.finish(&mut out);
        assert_eq!(out, t.encode("don't stop"));
    }
}
