//! Input generation. Every workload's input is a pure function of `--seed`:
//! SPEAR-DL source text plus per-operation payloads. The product receives
//! only these generated inputs, through its public compile and run entry
//! points.

use std::fmt::Write as _;

use spear_data::tweets::{self, Tweet, TweetConfig};

use crate::rng::{sample_cdf, zipf_cdf, Rng};

/// FNV-1a, for input hashes.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const GUIDELINES: &[&str] = &[
    "Read the whole item before deciding and weigh every clause, including \
     trailing qualifiers and elongated words that carry the writer's attitude.",
    "Treat irony with care: praise of an obviously bad situation is criticism \
     of that situation, not approval of it.",
    "Disregard usernames, hashtags and links when judging the content, but \
     keep any attitude they imply about the subject.",
    "When several subjects appear, decide on the subject the writer spends \
     the most words on, not the one mentioned first.",
    "If the item quotes someone else, judge the writer's attitude toward the \
     quoted material, not the material itself.",
    "Prefer the literal wording over outside knowledge: the writer's stated \
     experience decides the label even when it seems unusual.",
    "Keep any cleaned rendering faithful to the original: drop decorations and \
     repair obvious typos without adding or softening any claim.",
    "Weigh intensity words and repeated punctuation as amplifiers of the \
     surrounding attitude, never as independent signals.",
    "When the attitude changes over the course of the item, use the attitude \
     the writer lands on, since closing words state the settled judgement.",
    "Produce the answer in the requested format with no preamble and no \
     commentary beyond what the format asks for.",
];

fn guidelines(out: &mut String) {
    for (i, g) in GUIDELINES.iter().enumerate() {
        let _ = writeln!(out, "{}. {g}", i + 1);
    }
}

// ---------------------------------------------------------------- batch --

/// The `batch_adaptive` program: the paper's §7 setting as one SPEAR-DL
/// source. The view's long instruction block is the shared prefix (its one
/// parameter comes after it, so the block stays one literal segment); the
/// refinements append to the prompt, so refined prompts keep the prefix up
/// to the tweet and diverge after it.
pub fn batch_source() -> String {
    let mut view = String::from(
        "You are given one tweet per request. Summarize the tweet and decide \
         whether it is about the focus topic and expresses negative sentiment; \
         only tweets meeting both conditions are selected.\nGuidelines:\n",
    );
    guidelines(&mut view);
    view.push_str(
        "Answer with the selection label, then ' :: ', then the cleaned summary, \
         using a word limit of 40 for the whole answer.\nFocus topic: {{topic}}.\n\
         Tweet: {{ctx:tweet}}",
    );
    format!(
        r#"VIEW tweet_filter(topic = "school") TAGS [sentiment] = "{view}";

PIPELINE batch_adaptive {{
  REF CREATE "filter" FROM VIEW tweet_filter(topic = "school");
  GEN "verdict" USING "filter";
  EXPAND "filter" "Weigh the topic wording before the tone.";
  RETRY "retry" USING "filter" IF M["confidence"] < {BATCH_RETRY_BELOW}
    WITH auto_refine() MODE AUTO MAX 2;
  CHECK M["confidence"] < {BATCH_RETRY_BELOW} {{
    REF CREATE "note" TEXT "Low confidence after refinement; route to review.";
  }} ELSE {{
    REF CREATE "note" TEXT "Confident after refinement.";
  }}
}}
"#
    )
}

/// Confidence under which `batch_adaptive` retries with a refined prompt.
pub const BATCH_RETRY_BELOW: f64 = 0.62;

pub struct BatchInput {
    pub source: String,
    pub tweets: Vec<Tweet>,
}

pub fn batch(seed: u64, n: usize) -> BatchInput {
    BatchInput {
        source: batch_source(),
        tweets: tweets::generate(&TweetConfig {
            count: n,
            negative_fraction: 0.5,
            school_fraction: 0.3,
            hard_fraction: 0.12,
            seed,
        }),
    }
}

impl BatchInput {
    pub fn hash(&self) -> u64 {
        self.tweets
            .iter()
            .fold(fnv1a(FNV_OFFSET, self.source.as_bytes()), |h, t| {
                fnv1a(h, t.text.as_bytes())
            })
    }
}

// ---------------------------------------------------------------- serve --

/// Shape of an open-loop serving input.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Stream id decorrelating this workload's draws from the others'.
    pub stream: u64,
    pub requests: usize,
    pub families: usize,
    /// Zipf exponent of family popularity; 0 = uniform.
    pub family_zipf: f64,
    pub gen_calls: usize,
    /// Append a sentence to the prompt between GEN calls, so every call of
    /// one request renders a longer, distinct prompt (nothing for the
    /// generation memo to reuse inside a request).
    pub growing_prompt: bool,
    /// Share of arrivals replaying an earlier arrival's family and payload.
    pub duplicate_share: f64,
    pub interactive_share: f64,
    /// Words in a payload, inclusive range (one word is one token).
    pub payload_words: (usize, usize),
    /// Bursty arrivals: cycles of sixteen, twelve arrivals a quarter of the
    /// mean gap apart and then four at 3.25 times it, each gap jittered by an
    /// Erlang-2 draw. Every seed sees the same number and size of bursts, so
    /// tail latency does not hinge on whether a seed happened to draw one
    /// large burst; a plain exponential gap otherwise.
    pub bursty: bool,
}

/// One arrival. Its timestamp is not stored: a rate-ladder rung places it at
/// the running sum of `gap_unit × mean gap`, so rungs differ only in gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub id: u64,
    pub family: usize,
    pub item: String,
    pub interactive: bool,
    /// Inter-arrival gap in units of the mean gap.
    pub gap_unit: f64,
}

pub struct ServeInput {
    /// One view and one pipeline per family.
    pub source: String,
    pub arrivals: Vec<Arrival>,
}

const BURST_CYCLE: u64 = 16;
const BURST_LENGTH: u64 = 12;
const BURST_GAP: f64 = 0.25;
/// Chosen so a cycle's gaps average one unit.
const LULL_GAP: f64 = 3.25;

const TOPICS: &[&str] = &[
    "support tickets about account access",
    "product reviews of kitchen appliances",
    "incident reports from the payments service",
    "meeting notes from the design team",
    "bug reports filed against the mobile app",
    "customer emails about delivery delays",
    "forum posts discussing firmware updates",
    "survey answers on commute patterns",
    "release notes for the desktop client",
    "chat transcripts from the billing desk",
    "field reports from warehouse audits",
    "feedback forms about onboarding sessions",
];

const WORDS: &[&str] = &[
    "ledger", "gasket", "thread", "signal", "carton", "branch", "kernel", "saddle", "lantern",
    "mortar", "pulley", "quartz", "ribbon", "socket", "tunnel", "valley", "walnut", "zephyr",
    "anchor", "bobbin", "cobalt", "dynamo", "ember", "fathom", "girder", "hopper", "inlet",
    "jigsaw", "kettle", "limpet",
];

pub fn family_view_name(family: usize) -> String {
    format!("family_{family}")
}

pub fn family_pipeline_name(family: usize) -> String {
    format!("serve_{family}")
}

/// The instruction block of one family. The topic comes first, so families
/// diverge at the first token block and share nothing with one another.
fn family_template(family: usize) -> String {
    let topic = TOPICS[family % TOPICS.len()];
    let mut text = format!(
        "You are processing {topic}. Condense the item below and flag anything \
         that needs follow-up on {topic}.\nGuidelines for every item:\n"
    );
    guidelines(&mut text);
    text.push_str("Item: {{ctx:item}}\nAnswer with a word limit of 50.");
    text
}

fn serve_source(families: usize, gen_calls: usize, growing_prompt: bool) -> String {
    let mut source = String::new();
    for family in 0..families {
        let _ = writeln!(
            source,
            "VIEW {} TAGS [serve] = \"{}\";",
            family_view_name(family),
            family_template(family)
        );
    }
    for family in 0..families {
        let _ = writeln!(
            source,
            "PIPELINE {} {{\n  REF CREATE \"p\" FROM VIEW {}();",
            family_pipeline_name(family),
            family_view_name(family)
        );
        for call in 0..gen_calls.max(1) {
            if growing_prompt && call > 0 {
                let _ = writeln!(
                    source,
                    "  EXPAND \"p\" \"Pass {call}: revisit the {} and tighten the wording.\";",
                    WORDS[call % WORDS.len()]
                );
            }
            let _ = writeln!(source, "  GEN \"answer_{call}\" USING \"p\";");
        }
        source.push_str("}\n");
    }
    source
}

pub fn serve(seed: u64, shape: &ServeShape) -> ServeInput {
    let mut rng = Rng::new(seed, shape.stream);
    let cdf = (shape.family_zipf > 0.0).then(|| zipf_cdf(shape.families, shape.family_zipf));
    let mut originals: Vec<usize> = Vec::new();
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(shape.requests);
    for id in 0..shape.requests as u64 {
        let gap_unit = if shape.bursty {
            let in_burst = id % BURST_CYCLE < BURST_LENGTH;
            let jitter = (rng.exp1() + rng.exp1()) / 2.0;
            jitter * if in_burst { BURST_GAP } else { LULL_GAP }
        } else {
            rng.exp1()
        };
        let interactive = rng.chance(shape.interactive_share);
        let replay = rng.chance(shape.duplicate_share) && !originals.is_empty();
        let (family, item) = if replay {
            let source = &arrivals[*rng.pick(&originals)];
            (source.family, source.item.clone())
        } else {
            let family = match &cdf {
                Some(cdf) => sample_cdf(cdf, rng.unit()),
                None => rng.below(shape.families),
            };
            // `case <id>:` is what lets the traced run attribute an engine
            // call to the request whose payload it carries.
            let mut item = format!("case {id}:");
            for _ in 0..rng.range(shape.payload_words.0, shape.payload_words.1) {
                item.push(' ');
                item.push_str(rng.pick::<&str>(WORDS));
            }
            originals.push(arrivals.len());
            (family, item)
        };
        arrivals.push(Arrival {
            id,
            family,
            item,
            interactive,
            gap_unit,
        });
    }
    // The offered rate is a controlled variable: rescale the gaps so their
    // mean is exactly one unit, whatever the seed drew.
    let mean_gap = arrivals.iter().map(|a| a.gap_unit).sum::<f64>() / arrivals.len() as f64;
    for arrival in &mut arrivals {
        arrival.gap_unit /= mean_gap;
    }
    ServeInput {
        source: serve_source(shape.families, shape.gen_calls, shape.growing_prompt),
        arrivals,
    }
}

impl ServeInput {
    pub fn hash(&self) -> u64 {
        self.arrivals
            .iter()
            .fold(fnv1a(FNV_OFFSET, self.source.as_bytes()), |h, a| {
                let h = fnv1a(h, a.item.as_bytes());
                let h = fnv1a(h, &(a.family as u64).to_le_bytes());
                let h = fnv1a(h, &[u8::from(a.interactive)]);
                fnv1a(h, &a.gap_unit.to_bits().to_le_bytes())
            })
    }

    /// Arrival timestamps (virtual µs) at `mean_gap_us`.
    pub fn arrival_times(&self, mean_gap_us: f64) -> Vec<u64> {
        let mut now = 0u64;
        self.arrivals
            .iter()
            .map(|a| {
                now += ((a.gap_unit * mean_gap_us).round() as u64).max(1);
                now
            })
            .collect()
    }
}

// -------------------------------------------------------------- compile --

/// Views every `compile_cold` program may instantiate; compiled once in
/// set-up and installed in the runtime's catalog.
pub fn compile_prelude() -> String {
    let mut source = String::new();
    for (i, topic) in TOPICS.iter().take(COMPILE_VIEWS).enumerate() {
        let _ = writeln!(
            source,
            "VIEW cold_{i}(focus = \"the main claim\", word_limit = 40) TAGS [cold] = \
             \"You are processing {topic}. Condense the item with attention to {{{{focus}}}} \
             within a word limit of {{{{word_limit}}}}.\nItem: {{{{ctx:item}}}}\";"
        );
    }
    source
}
const COMPILE_VIEWS: usize = 8;
/// Thresholds a generated condition compares `M["confidence"]` with;
/// `EchoLlm` reports 0.6, or 0.85 once a prompt carries a reasoning hint.
const CONFIDENCE_CUTS: [&str; 3] = ["0.5", "0.7", "0.9"];

/// Name of the retriever and of the agent `compile_cold` programs call.
pub const COLD_RETRIEVER: &str = "cold_lookup";
pub const COLD_AGENT: &str = "cold_scorer";

pub struct CompileInput {
    pub prelude: String,
    /// One single-pipeline source per program, all distinct.
    pub programs: Vec<String>,
}

/// Statement generator for one program. Prompts are created before use and
/// every RETRY gets a prompt of its own, so the three-step `auto_refine`
/// ladder is never exhausted and no operation fails at run time.
struct ProgramGen<'a> {
    rng: &'a mut Rng,
    out: String,
    prompts: Vec<String>,
    labels: usize,
    next_prompt: usize,
}

impl ProgramGen<'_> {
    fn fresh_prompt(&mut self, indent: &str) -> String {
        let key = format!("p{}", self.next_prompt);
        self.next_prompt += 1;
        if self.rng.chance(0.6) {
            let view = self.rng.below(COMPILE_VIEWS);
            let focus = *self.rng.pick(WORDS);
            let _ = writeln!(
                self.out,
                "{indent}REF CREATE \"{key}\" FROM VIEW cold_{view}(focus = \"the {focus}\");"
            );
        } else {
            let a = *self.rng.pick(WORDS);
            let b = *self.rng.pick(WORDS);
            let _ = writeln!(
                self.out,
                "{indent}REF CREATE \"{key}\" TEXT \"Describe the {a} and the {b} of the item.\\nItem: {{{{ctx:item}}}}\";"
            );
        }
        key
    }

    fn label(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!("{stem}{}", self.labels)
    }

    fn cond(&mut self) -> String {
        match self.rng.below(4) {
            0 => format!("M[\"confidence\"] < {}", self.rng.pick(&CONFIDENCE_CUTS)),
            1 => "\"orders\" NOT IN C".to_string(),
            2 => "\"item\" IN C".to_string(),
            _ => format!(
                "M[\"confidence\"] >= {} && \"item\" IN C",
                ["0.55", "0.8"][self.rng.below(2)]
            ),
        }
    }

    /// Emit up to `budget` statements at `depth`; returns how many.
    fn block(&mut self, budget: usize, depth: usize) -> usize {
        let indent = "  ".repeat(depth + 1);
        let visible = self.prompts.len();
        let mut emitted = 0;
        while emitted < budget {
            let left = budget - emitted;
            let prompt = self.rng.pick(&self.prompts).clone();
            emitted += match self.rng.below(10) {
                0 | 1 => {
                    let label = self.label("g");
                    let _ = writeln!(self.out, "{indent}GEN \"{label}\" USING \"{prompt}\";");
                    1
                }
                2 => {
                    let word = *self.rng.pick(WORDS);
                    let _ = writeln!(
                        self.out,
                        "{indent}EXPAND \"{prompt}\" \"Mention the {word} when present.\";"
                    );
                    1
                }
                3 if left >= 2 => {
                    let key = self.fresh_prompt(&indent);
                    let label = self.label("r");
                    let below = *self.rng.pick(&CONFIDENCE_CUTS);
                    let max = self.rng.range(1, 2);
                    let _ = writeln!(
                        self.out,
                        "{indent}RETRY \"{label}\" USING \"{key}\" IF M[\"confidence\"] < {below}\n\
                         {indent}  WITH auto_refine() MODE AUTO MAX {max};"
                    );
                    2
                }
                4 | 5 if left >= 3 && depth < 2 => {
                    let cond = self.cond();
                    let _ = writeln!(self.out, "{indent}CHECK {cond} {{");
                    let then_budget = self.rng.range(1, (left - 1).min(6));
                    let mut inner = self.block(then_budget, depth + 1);
                    if self.rng.chance(0.5) && left - 1 - inner >= 1 {
                        let _ = writeln!(self.out, "{indent}}} ELSE {{");
                        let else_budget = self.rng.range(1, (left - 1 - inner).min(4));
                        inner += self.block(else_budget, depth + 1);
                    }
                    let _ = writeln!(self.out, "{indent}}}");
                    1 + inner
                }
                6 if self.prompts.len() >= 2 => {
                    let other = self.rng.pick(&self.prompts).clone();
                    let into = format!("p{}", self.next_prompt);
                    self.next_prompt += 1;
                    let policy = ["PREFER_LEFT", "PREFER_RIGHT"][self.rng.below(2)];
                    let _ = writeln!(
                        self.out,
                        "{indent}MERGE \"{prompt}\" \"{other}\" INTO \"{into}\" POLICY {policy};"
                    );
                    self.prompts.push(into);
                    1
                }
                7 if self.prompts.len() >= 2 => {
                    let other = self.rng.pick(&self.prompts).clone();
                    let into = self.label("d");
                    let _ = writeln!(
                        self.out,
                        "{indent}DIFF \"{prompt}\" \"{other}\" INTO \"{into}\";"
                    );
                    1
                }
                8 => {
                    if self.rng.chance(0.5) {
                        let into = self.label("docs");
                        let _ = writeln!(
                            self.out,
                            "{indent}RET \"{COLD_RETRIEVER}\" INTO \"{into}\" LIMIT 2;"
                        );
                    } else {
                        let into = self.label("score");
                        let _ = writeln!(
                            self.out,
                            "{indent}DELEGATE \"{COLD_AGENT}\" PAYLOAD C[\"item\"] INTO \"{into}\";"
                        );
                    }
                    1
                }
                _ => {
                    let key = self.fresh_prompt(&indent);
                    self.prompts.push(key);
                    1
                }
            };
        }
        // Prompts created inside a branch are not defined on the other
        // path; later statements at the outer level must not use them.
        if depth > 0 {
            self.prompts.truncate(visible);
        }
        emitted
    }
}

fn compile_program(rng: &mut Rng, index: usize) -> String {
    // Sizes are log-uniform in 1..=26 statements after the opening two, so
    // small programs are as common as large ones.
    let statements = (26f64.powf(rng.unit())).round() as usize;
    let mut gen = ProgramGen {
        rng,
        out: format!("PIPELINE cold_{index} {{\n"),
        prompts: Vec::new(),
        labels: 0,
        next_prompt: 0,
    };
    // Every program generates first, so `M["confidence"]` is set before any
    // condition reads it.
    let first = gen.fresh_prompt("  ");
    let _ = writeln!(gen.out, "  GEN \"g0\" USING \"{first}\";");
    gen.prompts.push(first);
    gen.block(statements, 0);
    gen.out.push_str("}\n");
    gen.out
}

pub fn compile(seed: u64, n: usize) -> CompileInput {
    let mut rng = Rng::new(seed, 5);
    CompileInput {
        prelude: compile_prelude(),
        programs: (0..n).map(|i| compile_program(&mut rng, i)).collect(),
    }
}

impl CompileInput {
    pub fn hash(&self) -> u64 {
        self.programs
            .iter()
            .fold(fnv1a(FNV_OFFSET, self.prelude.as_bytes()), |h, p| {
                fnv1a(h, p.as_bytes())
            })
    }
}

/// The payload a `compile_cold` program runs against.
pub fn compile_item(index: usize) -> String {
    let a = WORDS[index % WORDS.len()];
    let b = WORDS[(index / WORDS.len()) % WORDS.len()];
    format!("case {index}: the {a} beside the {b} was reported twice")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ServeShape {
        ServeShape {
            stream: 2,
            requests: 200,
            families: 4,
            family_zipf: 1.1,
            gen_calls: 2,
            growing_prompt: true,
            duplicate_share: 0.3,
            interactive_share: 0.6,
            payload_words: (8, 24),
            bursty: true,
        }
    }

    /// Same seed, identical input; another seed, another input — for every
    /// workload's generator.
    #[test]
    fn generators_are_functions_of_the_seed() {
        let hashes = |seed: u64| {
            [
                batch(seed, 128).hash(),
                serve(seed, &shape()).hash(),
                compile(seed, 128).hash(),
            ]
        };
        assert_eq!(hashes(7), hashes(7));
        for (a, b) in hashes(7).iter().zip(hashes(8)) {
            assert_ne!(*a, b);
        }
        // Streams decorrelate the three serving workloads under one seed.
        let other = ServeShape {
            stream: 3,
            ..shape()
        };
        assert_ne!(serve(7, &shape()).hash(), serve(7, &other).hash());
    }

    #[test]
    fn duplicates_replay_an_earlier_payload_and_ids_are_dense() {
        let input = serve(5, &shape());
        let mut seen = std::collections::BTreeSet::new();
        let mut replays = 0;
        for (i, a) in input.arrivals.iter().enumerate() {
            assert_eq!(a.id, i as u64);
            assert!(a.family < 4 && a.gap_unit >= 0.0);
            if !seen.insert((a.family, a.item.clone())) {
                replays += 1;
            }
        }
        assert!(
            (30..=90).contains(&replays),
            "{replays} replays of 200 at share 0.3"
        );
    }

    #[test]
    fn arrival_times_scale_with_the_gap_and_nothing_else_moves() {
        let input = serve(5, &shape());
        let (slow, fast) = (input.arrival_times(1200.0), input.arrival_times(1000.0));
        assert!(slow.windows(2).all(|w| w[0] < w[1]));
        let ratio = *slow.last().unwrap() as f64 / *fast.last().unwrap() as f64;
        assert!((ratio - 1.2).abs() < 0.01, "horizon ratio {ratio}");
    }

    #[test]
    fn compile_programs_are_distinct_and_vary_in_size() {
        let input = compile(3, 256);
        let distinct: std::collections::BTreeSet<&String> = input.programs.iter().collect();
        assert_eq!(distinct.len(), 256);
        let lines: Vec<usize> = input.programs.iter().map(|p| p.lines().count()).collect();
        assert!(
            *lines.iter().min().unwrap() <= 6 && *lines.iter().max().unwrap() >= 25,
            "{lines:?}"
        );
    }
}
