//! Refinement functions — the `f` in `REF[action, f]` (paper §3.3, §4.1).
//!
//! A [`Refiner`] transforms a prompt entry's text, possibly informed by the
//! context C and metadata M, and "may write structured output back into C
//! for downstream steps". Refiners are stateless and registered by name in a
//! [`RefinerRegistry`]; per-application arguments arrive as a [`Value`], so
//! pipelines remain serializable data (essential for SPEAR-DL, logging, and
//! replay).
//!
//! The built-in set covers the paper's three refinement modes:
//! manual text edits (`set_text`, `append`, `prepend`, `replace`,
//! `inject_example`, `normalize`), view instantiation (`from_view`),
//! assisted LLM rewriting (`llm_rewrite`), and signal-driven automatic
//! refinement (`auto_refine`).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::context::Context;
use crate::error::{Result, SpearError};
use crate::llm::{GenOptions, GenRequest, LlmClient, PromptIdentity};
use crate::metadata::Metadata;
use crate::prompt::{PromptEntry, PromptOrigin};
use crate::value::Value;
use crate::view::ViewCatalog;

/// Everything a refiner may consult.
pub struct RefineCtx<'a> {
    /// The entry being refined (`None` when the action is CREATE and the
    /// key does not exist yet).
    pub current: Option<&'a PromptEntry>,
    /// Runtime context C.
    pub context: &'a Context,
    /// Runtime metadata M.
    pub metadata: &'a Metadata,
    /// LLM backend, when the runtime has one (assisted refinement).
    pub llm: Option<&'a dyn LlmClient>,
    /// View catalog (for `from_view`).
    pub views: &'a ViewCatalog,
    /// The prompt store P (read-only here; meta-programming refiners such
    /// as `diff` consult other entries — paper §3.1 "meta programming:
    /// leveraging SPEAR's own operators to query, analyze, and refine
    /// prompts").
    pub prompts: &'a crate::store::PromptStore,
    /// Per-application arguments from the pipeline.
    pub args: &'a Value,
}

impl RefineCtx<'_> {
    /// Current text, or empty for CREATE.
    #[must_use]
    pub fn current_text(&self) -> &str {
        self.current.map_or("", |e| &e.text)
    }

    fn require_current(&self, refiner: &str) -> Result<&PromptEntry> {
        self.current.ok_or_else(|| SpearError::RefinerArgs {
            refiner: refiner.to_string(),
            reason: "target prompt does not exist; use CREATE first".to_string(),
        })
    }

    fn args_str(&self, refiner: &str) -> Result<&str> {
        self.args.as_str().ok_or_else(|| SpearError::RefinerArgs {
            refiner: refiner.to_string(),
            reason: format!("expected string args, got {}", self.args),
        })
    }

    fn args_field<'v>(&'v self, refiner: &str, field: &str) -> Result<&'v Value> {
        self.args
            .as_map()
            .and_then(|m| m.get(field))
            .ok_or_else(|| SpearError::RefinerArgs {
                refiner: refiner.to_string(),
                reason: format!("missing required field {field:?} in args"),
            })
    }
}

/// Result of a refinement.
#[derive(Debug, Default)]
pub struct RefineOutput {
    /// New prompt text; `None` means the text is unchanged (a refiner may
    /// only write to context). Shared, so a view's resolved text reaches P
    /// without a copy.
    pub new_text: Option<Arc<str>>,
    /// Structured outputs written back into C (paper §3.2).
    pub ctx_writes: Vec<(String, Value)>,
    /// Replacement params (e.g. when instantiating from a view).
    pub params: Option<BTreeMap<String, Value>>,
    /// Replacement origin (e.g. when instantiating from a view).
    pub origin: Option<PromptOrigin>,
    /// Free-form note recorded in the ref_log.
    pub note: Option<String>,
}

impl RefineOutput {
    /// A pure text replacement.
    #[must_use]
    pub fn text(t: impl Into<Arc<str>>) -> Self {
        Self {
            new_text: Some(t.into()),
            ..Self::default()
        }
    }
}

/// A refinement function.
pub trait Refiner: Send + Sync {
    /// Apply the refinement.
    ///
    /// # Errors
    ///
    /// Implementations return [`SpearError::RefinerArgs`] for invalid
    /// arguments and may propagate LLM/view errors.
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput>;
}

/// Wrap a closure as a [`Refiner`].
pub struct FnRefiner<F>(pub F);

impl<F> Refiner for FnRefiner<F>
where
    F: Fn(&RefineCtx<'_>) -> Result<RefineOutput> + Send + Sync,
{
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        (self.0)(rcx)
    }
}

// ---------------------------------------------------------------------------
// Built-in refiners
// ---------------------------------------------------------------------------

/// `set_text` — CREATE/replace the whole text with the string argument.
struct SetText;
impl Refiner for SetText {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        Ok(RefineOutput::text(rcx.args_str("set_text")?))
    }
}

/// Join two prompt fragments with a single newline, handling empty sides.
fn join_fragments(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_string(),
        (_, true) => a.to_string(),
        _ => format!("{a}\n{b}"),
    }
}

/// `append` — add the string argument at the end (the paper's
/// `REF[APPEND, "Focus on dosage and timing of Enoxaparin."]`).
struct Append;
impl Refiner for Append {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let addition = rcx.args_str("append")?;
        let current = rcx.require_current("append")?;
        Ok(RefineOutput::text(join_fragments(&current.text, addition)))
    }
}

/// `prepend` — add the string argument at the front.
struct Prepend;
impl Refiner for Prepend {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let addition = rcx.args_str("prepend")?;
        let current = rcx.require_current("prepend")?;
        Ok(RefineOutput::text(join_fragments(addition, &current.text)))
    }
}

/// `replace` — substring replacement; args `{find, with}`.
struct Replace;
impl Refiner for Replace {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let find =
            rcx.args_field("replace", "find")?
                .as_str()
                .ok_or_else(|| SpearError::RefinerArgs {
                    refiner: "replace".into(),
                    reason: "field \"find\" must be a string".into(),
                })?;
        let with =
            rcx.args_field("replace", "with")?
                .as_str()
                .ok_or_else(|| SpearError::RefinerArgs {
                    refiner: "replace".into(),
                    reason: "field \"with\" must be a string".into(),
                })?;
        let current = rcx.require_current("replace")?;
        if !current.text.contains(find) {
            return Err(SpearError::RefinerArgs {
                refiner: "replace".into(),
                reason: format!("pattern {find:?} not found in prompt text"),
            });
        }
        Ok(RefineOutput::text(current.text.replace(find, with)))
    }
}

/// `from_view` — instantiate a view; args `{view, args?}`. This is the
/// refiner behind `REF[CREATE, f_qa_prompt("Enoxaparin")]` when the base
/// prompt comes from the catalog, and behind the derived VIEW operator.
struct FromView;
impl Refiner for FromView {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let view_name = rcx
            .args_field("from_view", "view")?
            .as_str()
            .ok_or_else(|| SpearError::RefinerArgs {
                refiner: "from_view".into(),
                reason: "field \"view\" must be a string".into(),
            })?
            .to_string();
        let view_args: BTreeMap<String, Value> = match rcx.args.as_map().and_then(|m| m.get("args"))
        {
            Some(Value::Map(m)) => m.clone(),
            Some(other) => {
                return Err(SpearError::RefinerArgs {
                    refiner: "from_view".into(),
                    reason: format!("field \"args\" must be a map, got {other}"),
                })
            }
            None => BTreeMap::new(),
        };
        let entry = rcx.views.instantiate(&view_name, view_args)?;
        Ok(RefineOutput {
            new_text: Some(entry.text),
            params: Some(entry.params),
            origin: Some(entry.origin),
            note: Some(format!("instantiated view {view_name:?}")),
            ctx_writes: Vec::new(),
        })
    }
}

/// `llm_rewrite` — assisted refinement: the LLM rewrites the prompt given a
/// high-level instruction (paper §4.1, Assisted mode). Args: instruction
/// string, or `{instruction, keep_constraints?}`.
struct LlmRewrite;
impl Refiner for LlmRewrite {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let instruction = match rcx.args {
            Value::Str(s) => s.clone(),
            Value::Map(m) => m
                .get("instruction")
                .and_then(Value::as_str)
                .ok_or_else(|| SpearError::RefinerArgs {
                    refiner: "llm_rewrite".into(),
                    reason: "missing \"instruction\"".into(),
                })?
                .to_string(),
            other => {
                return Err(SpearError::RefinerArgs {
                    refiner: "llm_rewrite".into(),
                    reason: format!("expected string or map args, got {other}"),
                })
            }
        };
        let current = rcx.require_current("llm_rewrite")?;
        let llm = rcx.llm.ok_or(SpearError::LlmUnavailable {
            requested_by: "llm_rewrite".into(),
        })?;
        let meta_prompt = format!(
            "Rewrite the following prompt. Keep its task and constraints; \
             apply this instruction: {instruction}\n--- PROMPT ---\n{}",
            current.text
        );
        let response = llm.generate(&GenRequest {
            text: meta_prompt,
            identity: PromptIdentity::Opaque,
            options: GenOptions {
                max_tokens: 512,
                temperature: 0.0,
                task: Some("rewrite_prompt".to_string()),
            },
            segments: None,
        })?;
        Ok(RefineOutput {
            new_text: Some(response.text.into()),
            note: Some(format!("assisted rewrite: {instruction}")),
            ..RefineOutput::default()
        })
    }
}

/// The escalation ladder used by automatic refinement: each retry appends a
/// progressively stronger addition.
pub const AUTO_HINT_LADDER: [&str; 3] = [
    "Think step by step and explain your reasoning briefly.",
    "Be specific about every relevant detail (values, timing, entities) and \
     state your confidence.",
    "Example: for the input, first list the relevant facts, then derive the \
     answer strictly from those facts.",
];

/// `auto_refine` — automatic, signal-driven refinement (paper §4.1, Auto
/// mode: `f_add_hint := auto_refine(P["qa_prompt"], signal:
/// M["confidence"])`). Inspects the named signal and the retry counter and
/// appends the next hint from [`AUTO_HINT_LADDER`]. Args (all optional):
/// `{signal: "confidence"}`.
struct AutoRefine;
impl Refiner for AutoRefine {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let signal = rcx
            .args
            .as_map()
            .and_then(|m| m.get("signal"))
            .and_then(Value::as_str)
            .unwrap_or("confidence");
        let current = rcx.require_current("auto_refine")?;
        let value = rcx.metadata.get(signal);
        // Pick the next hint not already present (progressive escalation
        // across retries).
        let next = AUTO_HINT_LADDER
            .iter()
            .find(|h| !current.text.contains(**h));
        let Some(hint) = next else {
            return Err(SpearError::RefinerArgs {
                refiner: "auto_refine".into(),
                reason: "hint ladder exhausted; escalate to assisted/manual refinement".into(),
            });
        };
        let note = match value {
            Some(v) => format!("auto_refine on {signal}={v}"),
            None => format!("auto_refine (signal {signal} absent)"),
        };
        Ok(RefineOutput {
            new_text: Some(join_fragments(&current.text, hint).into()),
            note: Some(note),
            ..RefineOutput::default()
        })
    }
}

/// `inject_example` — append a formatted few-shot example; args
/// `{input, output}`.
struct InjectExample;
impl Refiner for InjectExample {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let input = rcx.args_field("inject_example", "input")?.render();
        let output = rcx.args_field("inject_example", "output")?.render();
        let current = rcx.require_current("inject_example")?;
        let example = format!("Example:\nInput: {input}\nOutput: {output}");
        Ok(RefineOutput::text(join_fragments(&current.text, &example)))
    }
}

/// `normalize` — trim trailing whitespace per line and collapse runs of
/// blank lines (the `f_normalize` of the paper's MAP example).
struct Normalize;
impl Refiner for Normalize {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let current = rcx.require_current("normalize")?;
        let mut out: Vec<&str> = Vec::new();
        let mut blank_run = 0usize;
        for line in current.text.lines() {
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                blank_run += 1;
                if blank_run > 1 {
                    continue;
                }
            } else {
                blank_run = 0;
            }
            out.push(trimmed);
        }
        while out.last().is_some_and(|l| l.is_empty()) {
            out.pop();
        }
        Ok(RefineOutput::text(out.join("\n")))
    }
}

/// `diff` — the derived DIFF operator (paper Table 2): computes the
/// structural/semantic difference between two prompt entries and writes the
/// result into C (the prompt text is untouched). Args: `{left, right, into?}`
/// where `left`/`right` are prompt keys and `into` defaults to `"diff"`.
struct DiffRefiner;
impl Refiner for DiffRefiner {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let left =
            rcx.args_field("diff", "left")?
                .as_str()
                .ok_or_else(|| SpearError::RefinerArgs {
                    refiner: "diff".into(),
                    reason: "field \"left\" must be a prompt key".into(),
                })?;
        let right =
            rcx.args_field("diff", "right")?
                .as_str()
                .ok_or_else(|| SpearError::RefinerArgs {
                    refiner: "diff".into(),
                    reason: "field \"right\" must be a prompt key".into(),
                })?;
        let into = rcx
            .args
            .as_map()
            .and_then(|m| m.get("into"))
            .and_then(Value::as_str)
            .unwrap_or("diff")
            .to_string();
        let d = rcx.prompts.diff(left, right)?;
        let result = crate::value::map([
            ("added", Value::from(d.added)),
            ("removed", Value::from(d.removed)),
            ("similarity", Value::from(d.similarity)),
            ("common_prefix_chars", Value::from(d.common_prefix_chars)),
            ("rendered", Value::from(d.render())),
        ]);
        Ok(RefineOutput {
            new_text: None,
            ctx_writes: vec![(into, result)],
            note: Some(format!("diff({left:?}, {right:?})")),
            ..RefineOutput::default()
        })
    }
}

/// `split_sections` — the post-processing half of GEN fusion (paper §5:
/// fused GENs "generating multiple sections from the same view" need their
/// combined output distributed back to the labels the original GENs would
/// have written). Args: `{from, into: [keys...], separator?}`. Reads
/// `C[from]`, splits on the separator (default `"\n===\n"`), and writes one
/// section per key into C; missing sections fall back to the whole text so
/// downstream operators still see *something* when a model ignores the
/// sectioning instruction. The prompt text is untouched.
struct SplitSections;
impl Refiner for SplitSections {
    fn refine(&self, rcx: &RefineCtx<'_>) -> Result<RefineOutput> {
        let from = rcx
            .args_field("split_sections", "from")?
            .as_str()
            .ok_or_else(|| SpearError::RefinerArgs {
                refiner: "split_sections".into(),
                reason: "field \"from\" must be a context key".into(),
            })?;
        let into = rcx
            .args_field("split_sections", "into")?
            .as_list()
            .ok_or_else(|| SpearError::RefinerArgs {
                refiner: "split_sections".into(),
                reason: "field \"into\" must be a list of context keys".into(),
            })?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| SpearError::RefinerArgs {
                        refiner: "split_sections".into(),
                        reason: "every \"into\" element must be a string".into(),
                    })
            })
            .collect::<Result<Vec<String>>>()?;
        let separator = rcx
            .args
            .as_map()
            .and_then(|m| m.get("separator"))
            .and_then(Value::as_str)
            .unwrap_or("\n===\n")
            .to_string();
        let combined = rcx
            .context
            .get(from)
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or_else(|| SpearError::RefinerArgs {
                refiner: "split_sections".into(),
                reason: format!("context key {from:?} missing or not text"),
            })?;
        let mut parts = combined.split(&separator);
        let ctx_writes = into
            .iter()
            .map(|key| {
                let section = parts
                    .next()
                    .map_or_else(|| combined.trim().to_string(), |s| s.trim().to_string());
                (key.clone(), Value::from(section))
            })
            .collect();
        Ok(RefineOutput {
            new_text: None,
            ctx_writes,
            note: Some(format!("split C[{from:?}] into {} sections", into.len())),
            ..RefineOutput::default()
        })
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named registry of refiners.
#[derive(Clone, Default)]
pub struct RefinerRegistry {
    inner: Arc<RwLock<BTreeMap<String, Arc<dyn Refiner>>>>,
}

impl RefinerRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry pre-loaded with every built-in refiner.
    #[must_use]
    pub fn with_builtins() -> Self {
        let reg = Self::new();
        reg.register("set_text", Arc::new(SetText));
        reg.register("append", Arc::new(Append));
        reg.register("prepend", Arc::new(Prepend));
        reg.register("replace", Arc::new(Replace));
        reg.register("from_view", Arc::new(FromView));
        reg.register("llm_rewrite", Arc::new(LlmRewrite));
        reg.register("auto_refine", Arc::new(AutoRefine));
        reg.register("inject_example", Arc::new(InjectExample));
        reg.register("normalize", Arc::new(Normalize));
        reg.register("diff", Arc::new(DiffRefiner));
        reg.register("split_sections", Arc::new(SplitSections));
        reg
    }

    /// Register `refiner` under `name` (replacing any previous one).
    pub fn register(&self, name: impl Into<String>, refiner: Arc<dyn Refiner>) {
        self.inner.write().insert(name.into(), refiner);
    }

    /// Resolve a refiner name.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::RefinerNotFound`] when absent.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn Refiner>> {
        self.inner
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SpearError::RefinerNotFound(name.to_string()))
    }

    /// Whether `name` is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().contains_key(name)
    }

    /// Registered names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }
}

impl std::fmt::Debug for RefinerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefinerRegistry")
            .field("refiners", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::llm::EchoLlm;
    use crate::value::map;
    use crate::view::{ParamSpec, ViewDef};

    struct Fixture {
        entry: PromptEntry,
        context: Context,
        metadata: Metadata,
        views: ViewCatalog,
        prompts: crate::store::PromptStore,
    }

    impl Fixture {
        fn new(text: &str) -> Self {
            let views = ViewCatalog::new();
            views.register(
                ViewDef::new("qa", "Answer about {{drug}}.")
                    .with_param(ParamSpec::required("drug")),
            );
            Self {
                entry: PromptEntry::new(text, "f_base", RefinementMode::Manual),
                context: Context::new(),
                metadata: Metadata::new(),
                views,
                prompts: crate::store::PromptStore::new(),
            }
        }

        fn rcx<'a>(&'a self, args: &'a Value, llm: Option<&'a dyn LlmClient>) -> RefineCtx<'a> {
            RefineCtx {
                current: Some(&self.entry),
                context: &self.context,
                metadata: &self.metadata,
                llm,
                views: &self.views,
                prompts: &self.prompts,
                args,
            }
        }
    }

    fn apply(name: &str, fx: &Fixture, args: &Value) -> Result<RefineOutput> {
        let reg = RefinerRegistry::with_builtins();
        reg.resolve(name)?.refine(&fx.rcx(args, None))
    }

    #[test]
    fn append_prepend_set_replace() {
        let fx = Fixture::new("base prompt");
        let out = apply("append", &fx, &Value::from("Focus on dosage.")).unwrap();
        assert_eq!(&*out.new_text.unwrap(), "base prompt\nFocus on dosage.");

        let out = apply("prepend", &fx, &Value::from("System:")).unwrap();
        assert_eq!(&*out.new_text.unwrap(), "System:\nbase prompt");

        let out = apply("set_text", &fx, &Value::from("fresh")).unwrap();
        assert_eq!(&*out.new_text.unwrap(), "fresh");

        let out = apply(
            "replace",
            &fx,
            &map([("find", Value::from("base")), ("with", Value::from("core"))]),
        )
        .unwrap();
        assert_eq!(&*out.new_text.unwrap(), "core prompt");
    }

    #[test]
    fn replace_missing_pattern_errors() {
        let fx = Fixture::new("text");
        let err = apply(
            "replace",
            &fx,
            &map([("find", Value::from("zzz")), ("with", Value::from("y"))]),
        )
        .unwrap_err();
        assert!(matches!(err, SpearError::RefinerArgs { .. }));
    }

    #[test]
    fn append_without_target_errors() {
        let fx = Fixture::new("ignored");
        let reg = RefinerRegistry::with_builtins();
        let args = Value::from("x");
        let rcx = RefineCtx {
            current: None,
            context: &fx.context,
            metadata: &fx.metadata,
            llm: None,
            views: &fx.views,
            prompts: &fx.prompts,
            args: &args,
        };
        assert!(reg.resolve("append").unwrap().refine(&rcx).is_err());
    }

    #[test]
    fn diff_refiner_writes_context_only() {
        let fx = Fixture::new("ignored");
        fx.prompts
            .define("a", "shared", "f", RefinementMode::Manual);
        fx.prompts
            .define("b", "shared\nextra", "f", RefinementMode::Manual);
        let out = apply(
            "diff",
            &fx,
            &map([
                ("left", Value::from("a")),
                ("right", Value::from("b")),
                ("into", Value::from("prompt_diff")),
            ]),
        )
        .unwrap();
        assert!(out.new_text.is_none());
        let (key, val) = &out.ctx_writes[0];
        assert_eq!(key, "prompt_diff");
        assert_eq!(val.path("added").unwrap().as_i64(), Some(1));
        assert_eq!(val.path("removed").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn from_view_sets_text_params_origin() {
        let fx = Fixture::new("");
        let out = apply(
            "from_view",
            &fx,
            &map([
                ("view", Value::from("qa")),
                ("args", map([("drug", Value::from("Enoxaparin"))])),
            ]),
        )
        .unwrap();
        assert!(out.new_text.unwrap().contains("{{drug}}"));
        assert_eq!(
            out.params.unwrap().get("drug").unwrap().as_str(),
            Some("Enoxaparin")
        );
        assert!(matches!(out.origin, Some(PromptOrigin::View { .. })));
    }

    #[test]
    fn llm_rewrite_requires_llm_and_uses_it() {
        let fx = Fixture::new("Summarize the notes.");
        let err = apply("llm_rewrite", &fx, &Value::from("emphasize PE risk")).unwrap_err();
        assert!(matches!(err, SpearError::LlmUnavailable { .. }));

        let echo = EchoLlm::default();
        let reg = RefinerRegistry::with_builtins();
        let args = Value::from("emphasize PE risk");
        let out = reg
            .resolve("llm_rewrite")
            .unwrap()
            .refine(&fx.rcx(&args, Some(&echo)))
            .unwrap();
        assert!(out.new_text.is_some());
        assert!(out.note.unwrap().contains("PE risk"));
    }

    #[test]
    fn auto_refine_walks_the_ladder_and_exhausts() {
        let mut fx = Fixture::new("Classify the tweet.");
        fx.metadata.set("confidence", 0.4);
        let args = map([("signal", Value::from("confidence"))]);

        for expected in AUTO_HINT_LADDER {
            let out = apply("auto_refine", &fx, &args).unwrap();
            let text = out.new_text.unwrap();
            assert!(text.contains(expected), "ladder step {expected:?}");
            fx.entry.apply_refinement(
                text,
                crate::history::RefAction::Update,
                "auto_refine",
                RefinementMode::Auto,
                0,
                None,
                BTreeMap::new(),
                None,
            );
        }
        // All hints applied: next call reports exhaustion.
        assert!(apply("auto_refine", &fx, &args).is_err());
    }

    #[test]
    fn auto_refine_notes_the_signal_value() {
        let mut fx = Fixture::new("p");
        fx.metadata.set("confidence", 0.55);
        let out = apply("auto_refine", &fx, &Value::Null).unwrap();
        assert!(out.note.unwrap().contains("0.55"));
    }

    #[test]
    fn inject_example_formats_pair() {
        let fx = Fixture::new("Classify sentiment.");
        let out = apply(
            "inject_example",
            &fx,
            &map([
                ("input", Value::from("I hate rain")),
                ("output", Value::from("negative")),
            ]),
        )
        .unwrap();
        let text = out.new_text.unwrap();
        assert!(text.contains("Input: I hate rain"));
        assert!(text.contains("Output: negative"));
    }

    #[test]
    fn normalize_collapses_blank_runs() {
        let fx = Fixture::new("a  \n\n\n\nb\t\n\n");
        let out = apply("normalize", &fx, &Value::Null).unwrap();
        assert_eq!(&*out.new_text.unwrap(), "a\n\nb");
    }

    #[test]
    fn split_sections_distributes_fused_output() {
        let mut fx = Fixture::new("shared prompt");
        fx.context
            .set("fused", "first section\n===\nsecond section");
        let out = apply(
            "split_sections",
            &fx,
            &map([
                ("from", Value::from("fused")),
                (
                    "into",
                    Value::from(vec![Value::from("summary"), Value::from("label")]),
                ),
            ]),
        )
        .unwrap();
        assert!(out.new_text.is_none());
        assert_eq!(out.ctx_writes.len(), 2);
        assert_eq!(
            out.ctx_writes[0],
            ("summary".into(), Value::from("first section"))
        );
        assert_eq!(
            out.ctx_writes[1],
            ("label".into(), Value::from("second section"))
        );
    }

    #[test]
    fn split_sections_pads_missing_sections_with_full_text() {
        let mut fx = Fixture::new("p");
        fx.context.set("fused", "only one section came back");
        let out = apply(
            "split_sections",
            &fx,
            &map([
                ("from", Value::from("fused")),
                (
                    "into",
                    Value::from(vec![Value::from("a"), Value::from("b")]),
                ),
            ]),
        )
        .unwrap();
        assert_eq!(
            out.ctx_writes[0].1,
            Value::from("only one section came back")
        );
        assert_eq!(
            out.ctx_writes[1].1,
            Value::from("only one section came back")
        );
    }

    #[test]
    fn split_sections_error_paths() {
        let fx = Fixture::new("p");
        // Missing context key.
        assert!(apply(
            "split_sections",
            &fx,
            &map([
                ("from", Value::from("ghost")),
                ("into", Value::from(vec![Value::from("a")])),
            ]),
        )
        .is_err());
        // Malformed into list.
        assert!(apply(
            "split_sections",
            &fx,
            &map([("from", Value::from("x")), ("into", Value::from(1))]),
        )
        .is_err());
    }

    #[test]
    fn registry_listing_and_missing() {
        let reg = RefinerRegistry::with_builtins();
        assert!(reg.names().contains(&"auto_refine".to_string()));
        assert!(matches!(
            reg.resolve("ghost"),
            Err(SpearError::RefinerNotFound(_))
        ));
    }

    #[test]
    fn fn_refiner_and_ctx_writes() {
        let reg = RefinerRegistry::new();
        reg.register(
            "extractor",
            Arc::new(FnRefiner(|rcx: &RefineCtx<'_>| {
                Ok(RefineOutput {
                    new_text: None,
                    ctx_writes: vec![(
                        "prompt_len".to_string(),
                        Value::from(rcx.current_text().len()),
                    )],
                    ..RefineOutput::default()
                })
            })),
        );
        let fx = Fixture::new("12345");
        let out = reg
            .resolve("extractor")
            .unwrap()
            .refine(&fx.rcx(&Value::Null, None))
            .unwrap();
        assert!(out.new_text.is_none());
        assert_eq!(out.ctx_writes[0].1.as_i64(), Some(5));
    }
}
