//! The whole-prompt task model [`TaskScan`](super::TaskScan) replaced, kept
//! as the reference the differential tests compare against: one
//! `to_lowercase` of the whole prompt, then one `contains`/`find` pass per
//! marker, `rfind` for the item, and `split`/`split_whitespace` over the
//! whole prompt for the generic answer.

use spear_data::vocab;
use spear_kv::shard::fnv1a;

use super::{
    clean, confidence_for, correctness_probability, draw, lexicon_negative, rewrite_prompt,
    write_prompt, TaskOutcome, TaskParams,
};
use crate::profile::{PromptFeatures, TaskKind};

/// Route and run over the whole prompt.
pub(super) fn detect_and_run(
    hint: Option<&str>,
    prompt: &str,
    params: &TaskParams<'_>,
) -> TaskOutcome {
    let lower = prompt.to_lowercase();
    run_lowered(detect_task_lowered(hint, &lower), prompt, &lower, params)
}

pub(super) fn detect_task_lowered(hint: Option<&str>, lower: &str) -> TaskKind {
    if let Some(h) = hint {
        match h {
            "summarize" => return TaskKind::Summarize,
            "classify_sentiment" => return TaskKind::ClassifySentiment,
            "classify_school_negative" => return TaskKind::ClassifySchoolNegative,
            "fused_map_filter" => return TaskKind::FusedMapFilter,
            "fused_filter_map" => return TaskKind::FusedFilterMap,
            "rewrite_prompt" => return TaskKind::RewritePrompt,
            "write_prompt" => return TaskKind::WritePrompt,
            "qa" => return TaskKind::Qa,
            _ => {}
        }
    }
    if lower.contains("--- prompt ---") {
        return TaskKind::RewritePrompt;
    }
    if lower.contains("write a prompt") || lower.contains("generate a prompt") {
        return TaskKind::WritePrompt;
    }
    let summarizes = lower.contains("summarize") || lower.contains("clean up");
    let classifies = lower.contains("sentiment") || lower.contains("classify");
    let school = lower.contains("school");
    if !classifies && (lower.contains("medication") || lower.contains("enoxaparin")) {
        return TaskKind::Qa;
    }
    match (summarizes, classifies) {
        (true, true) => {
            if school {
                TaskKind::ClassifySchoolNegative
            } else {
                let s_at = lower.find("summarize").or_else(|| lower.find("clean up"));
                let c_at = lower.find("sentiment").or_else(|| lower.find("classify"));
                match (s_at, c_at) {
                    (Some(s), Some(c)) if s <= c => TaskKind::FusedMapFilter,
                    _ => TaskKind::FusedFilterMap,
                }
            }
        }
        (true, false) => TaskKind::Summarize,
        (false, true) => {
            if school {
                TaskKind::ClassifySchoolNegative
            } else {
                TaskKind::ClassifySentiment
            }
        }
        (false, false) => {
            if lower.contains("medication") || lower.contains("enoxaparin") {
                TaskKind::Qa
            } else {
                TaskKind::Generic
            }
        }
    }
}

pub(super) fn extract_input(prompt: &str) -> &str {
    for marker in ["Input:", "Tweet:", "Text:"] {
        if let Some(pos) = prompt.rfind(marker) {
            return prompt[pos + marker.len()..].trim();
        }
    }
    prompt
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("")
        .trim()
}

pub(super) fn parse_word_limit_lowered(lower: &str) -> Option<usize> {
    for marker in ["at most ", "word limit of ", "no more than "] {
        if let Some(pos) = lower.find(marker) {
            let rest = &lower[pos + marker.len()..];
            let num: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(n) = num.parse::<usize>() {
                if n > 0 {
                    return Some(n);
                }
            }
        }
    }
    None
}

pub(super) fn run_lowered(
    kind: TaskKind,
    prompt: &str,
    lower: &str,
    params: &TaskParams<'_>,
) -> TaskOutcome {
    match kind {
        TaskKind::Summarize => summarize(prompt, lower),
        TaskKind::ClassifySentiment => classify(prompt, lower, params, kind, false),
        TaskKind::ClassifySchoolNegative => classify(prompt, lower, params, kind, true),
        TaskKind::FusedMapFilter | TaskKind::FusedFilterMap => fused(prompt, lower, params, kind),
        TaskKind::RewritePrompt => rewrite_prompt(prompt),
        TaskKind::WritePrompt => write_prompt(prompt),
        TaskKind::Qa => qa(prompt, lower),
        TaskKind::Generic => generic(prompt),
    }
}

fn classify(
    prompt: &str,
    lower: &str,
    params: &TaskParams<'_>,
    kind: TaskKind,
    school: bool,
) -> TaskOutcome {
    let item = extract_input(prompt);
    let (p, features) = correctness_probability(kind, PromptFeatures::detect(prompt), params);
    let (neg, strength) = lexicon_negative(item);
    let r = draw(item, &params.profile.name, features, params.seed, 0xC1A5);
    let decided_negative = if r < p { neg } else { !neg };
    let text = if school {
        let matches = decided_negative && vocab::is_school_related(item);
        let label = if matches { "yes" } else { "no" };
        if lower.contains("summarize") || lower.contains("clean up") {
            let limit = parse_word_limit_lowered(lower).unwrap_or(25);
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
        if lower.contains("justification") {
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

fn summarize(prompt: &str, lower: &str) -> TaskOutcome {
    let item = extract_input(prompt);
    let limit = parse_word_limit_lowered(lower).unwrap_or(25);
    TaskOutcome {
        confidence: 0.9,
        text: clean(item, limit),
    }
}

fn fused(prompt: &str, lower: &str, params: &TaskParams<'_>, kind: TaskKind) -> TaskOutcome {
    let item = extract_input(prompt);
    let limit = parse_word_limit_lowered(lower).unwrap_or(25);
    let (p, features) = correctness_probability(kind, PromptFeatures::detect(prompt), params);
    let (neg, strength) = lexicon_negative(item);
    let r = draw(item, &params.profile.name, features, params.seed, 0xF05E);
    let decided_negative = if r < p { neg } else { !neg };
    let label = if decided_negative {
        "negative"
    } else {
        "positive"
    };
    let tail = if lower.contains("justification") {
        " — checked"
    } else {
        ""
    };
    TaskOutcome {
        confidence: confidence_for(p, strength, fnv1a(item.as_bytes()) ^ 0xFACE),
        text: format!("{label} :: {}{tail}", clean(item, limit)),
    }
}

fn qa(prompt: &str, lower: &str) -> TaskOutcome {
    let features = PromptFeatures::detect(prompt);
    let sentence = prompt
        .split(['.', '\n'])
        .find(|s| s.to_lowercase().contains("enoxaparin") && s.to_lowercase().contains("mg"));
    let mut confidence: f64 = 0.55;
    if features.has_hint {
        confidence += 0.2;
    }
    if features.has_specificity || lower.contains("dosage") || lower.contains("timing") {
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

fn generic(prompt: &str) -> TaskOutcome {
    // Fused multi-section requests (the optimizer's GEN fusion appends
    // "Produce one section per requested output, in this order: a, b ...").
    if let Some(rest) = prompt.split("in this order:").nth(1) {
        if prompt.contains("one section per requested output") {
            let labels: Vec<&str> = rest
                .split('.')
                .next()
                .unwrap_or("")
                .split(',')
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .collect();
            if !labels.is_empty() {
                let words = prompt.split_whitespace().count();
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
    }
    let words = prompt.split_whitespace().count();
    TaskOutcome {
        text: format!(
            "The requested output, stated in plain prose from the provided              {words}-word material with the relevant details restated for              the reader."
        ),
        confidence: 0.7,
    }
}
