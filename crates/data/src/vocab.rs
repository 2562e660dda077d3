//! Shared vocabulary: sentiment lexicon and topic word lists.
//!
//! Both the synthetic tweet generator and the LLM simulator's behavioural
//! task model use this vocabulary. That coupling is deliberate and mirrors
//! reality: a competent model recovers the sentiment a human author encoded;
//! here the generator encodes polarity with these words and the simulated
//! model decodes it with the same lexicon, with controlled ambiguity
//! supplying the error floor.

/// Strongly positive words.
pub const POSITIVE_WORDS: &[&str] = &[
    "love",
    "great",
    "awesome",
    "amazing",
    "happy",
    "wonderful",
    "excited",
    "fantastic",
    "best",
    "beautiful",
    "fun",
    "glad",
    "proud",
    "perfect",
    "sweet",
    "brilliant",
    "delighted",
    "enjoyed",
    "thrilled",
    "grateful",
];

/// Strongly negative words.
pub const NEGATIVE_WORDS: &[&str] = &[
    "hate",
    "awful",
    "terrible",
    "sad",
    "horrible",
    "worst",
    "angry",
    "annoyed",
    "miserable",
    "disappointed",
    "upset",
    "frustrated",
    "boring",
    "ruined",
    "sick",
    "tired",
    "failed",
    "ugh",
    "crying",
    "stressed",
];

/// Ambiguous words that weaken the polarity signal (used to create hard
/// items — the simulator's residual error source).
pub const AMBIGUOUS_WORDS: &[&str] = &[
    "okay",
    "fine",
    "whatever",
    "interesting",
    "unexpected",
    "surprising",
    "different",
    "busy",
    "quiet",
    "long",
];

/// School-topic nouns (the refined filter of Table 3 targets these).
pub const SCHOOL_WORDS: &[&str] = &[
    "school",
    "homework",
    "exam",
    "teacher",
    "class",
    "semester",
    "lecture",
    "campus",
    "finals",
    "professor",
    "studying",
    "grades",
];

/// Work-topic nouns.
pub const WORK_WORDS: &[&str] = &[
    "work", "meeting", "boss", "office", "deadline", "shift", "project", "overtime", "commute",
    "paycheck",
];

/// Weather-topic nouns.
pub const WEATHER_WORDS: &[&str] = &[
    "rain", "sunshine", "storm", "snow", "weather", "heatwave", "clouds", "wind", "fog", "thunder",
];

/// Sports-topic nouns.
pub const SPORTS_WORDS: &[&str] = &[
    "game", "team", "match", "season", "coach", "goal", "playoffs", "training", "score", "stadium",
];

/// Food-topic nouns.
pub const FOOD_WORDS: &[&str] = &[
    "coffee",
    "pizza",
    "dinner",
    "breakfast",
    "lunch",
    "dessert",
    "restaurant",
    "recipe",
    "snack",
    "burger",
];

fn words_of(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// Whether `word`'s lowercase is one of `list`'s entries, which are all
/// lowercase ASCII: an ASCII word compares in place, any other (which may
/// fold to ASCII, as the Kelvin sign does to `k`) is lowercased first. The
/// task model scores every GEN's item this way.
fn listed(word: &str, list: &[&str]) -> bool {
    if word.is_ascii() {
        list.iter().any(|entry| word.eq_ignore_ascii_case(entry))
    } else {
        list.contains(&word.to_lowercase().as_str())
    }
}

/// Lexicon polarity score of `text`: +1 per positive word, −1 per negative
/// word. 0 means no (or balanced) signal.
#[must_use]
pub fn sentiment_score(text: &str) -> i32 {
    let mut score = 0;
    for w in words_of(text) {
        if listed(w, POSITIVE_WORDS) {
            score += 1;
        } else if listed(w, NEGATIVE_WORDS) {
            score -= 1;
        }
    }
    score
}

/// Whether `text` mentions a school-topic word.
#[must_use]
pub fn is_school_related(text: &str) -> bool {
    words_of(text).any(|w| listed(w, SCHOOL_WORDS))
}

/// Count of ambiguous words in `text` (difficulty proxy).
#[must_use]
pub fn ambiguity(text: &str) -> usize {
    words_of(text)
        .filter(|w| listed(w, AMBIGUOUS_WORDS))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_reflect_polarity() {
        assert!(sentiment_score("I love this awesome day") > 0);
        assert!(sentiment_score("worst day ever, so sad") < 0);
        assert_eq!(sentiment_score("the cat sat on the mat"), 0);
        assert_eq!(sentiment_score("love and hate"), 0, "balanced cancels");
    }

    #[test]
    fn scoring_is_case_and_punct_insensitive() {
        assert_eq!(sentiment_score("LOVE!!!"), 1);
        assert_eq!(sentiment_score("Hate."), -1);
    }

    #[test]
    fn school_detection() {
        assert!(is_school_related("so much homework tonight"));
        assert!(is_school_related("Finals week."));
        assert!(!is_school_related("the office meeting ran long"));
    }

    #[test]
    fn ambiguity_counts() {
        assert_eq!(ambiguity("it was okay I guess, fine really"), 2);
        assert_eq!(ambiguity("love it"), 0);
    }

    #[test]
    fn word_lists_are_lowercase_ascii() {
        let lists = [
            POSITIVE_WORDS,
            NEGATIVE_WORDS,
            AMBIGUOUS_WORDS,
            SCHOOL_WORDS,
            WORK_WORDS,
            WEATHER_WORDS,
            SPORTS_WORDS,
            FOOD_WORDS,
        ];
        for word in lists.concat() {
            assert!(
                word.is_ascii() && word.to_ascii_lowercase() == word,
                "{word} is not lowercase ASCII"
            );
        }
    }

    #[test]
    fn listed_matches_lowercasing_every_word() {
        for text in [
            "I LOVE this, so much HOMEWORK tonight!",
            "Σ Hate \u{212A}ill İnternet ExAm wörter naïve",
            "okay OKAY fine İ",
            "",
        ] {
            for list in [
                POSITIVE_WORDS,
                NEGATIVE_WORDS,
                SCHOOL_WORDS,
                AMBIGUOUS_WORDS,
            ] {
                for word in words_of(text) {
                    assert_eq!(
                        listed(word, list),
                        list.contains(&word.to_lowercase().as_str()),
                        "{word}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_lists_are_disjoint() {
        for p in POSITIVE_WORDS {
            assert!(!NEGATIVE_WORDS.contains(p), "{p} in both polarities");
            assert!(!AMBIGUOUS_WORDS.contains(p), "{p} positive and ambiguous");
        }
        for n in NEGATIVE_WORDS {
            assert!(!AMBIGUOUS_WORDS.contains(n), "{n} negative and ambiguous");
        }
    }
}
