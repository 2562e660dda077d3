//! Prompt-text templating.
//!
//! Prompt fragments in P are "possibly parameterized with variables from
//! context C" (paper §3.1). Templates use `{{name}}` placeholders that
//! resolve, in order, against (1) the entry's own parameters, (2) the
//! runtime context, with the explicit forms `{{param:name}}` and
//! `{{ctx:name}}` pinning one source. The `{{view:name}}` form is resolved
//! earlier, at view-instantiation time (see [`crate::view`]); encountering it
//! here is an error, which catches views that were never instantiated.
//!
//! A [`PromptText`] carries its parse, made once, with the text.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use serde::{Content, DeError, Deserialize, Serialize};
use spear_kv::shard::{fnv1a, fnv1a_extend};

use crate::context::Context;
use crate::error::{Result, SpearError};
use crate::segment::{SegmentedText, TextSegment};
use crate::value::Value;

/// One segment of a parsed template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Literal text, as the shared, pre-hashed segment every render of the
    /// template hands the engine: a view prefix rendered on every request
    /// of a family is allocated and hashed once per parse, not per render.
    Literal(TextSegment),
    /// A `{{...}}` placeholder, with its optional `source:` prefix split off
    /// (both shared, so a derived parse copies pointers).
    Placeholder {
        /// `None` for plain `{{name}}`; `Some("ctx")`, `Some("param")`, or
        /// `Some("view")` for the prefixed forms.
        source: Option<Arc<str>>,
        /// The placeholder name.
        name: Arc<str>,
    },
}

/// A template's parse: literal and placeholder segments in order, no
/// literal empty and no two adjacent. Clones share the segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTemplate {
    segments: Arc<[Segment]>,
}

impl ParsedTemplate {
    /// The segments, in template order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The one parse routine, and it appends: `prev`, the parse of
    /// `text[..from]` (which must not end in `{`), extended by the parse of
    /// `text[from..]`, whose leading literal merges into a literal `prev`
    /// ends with. A literal that is all of `text` shares `whole`, the
    /// text's own allocation, when one is passed. `None` on an unclosed or
    /// empty `{{`.
    fn extend(prev: &[Segment], text: &str, from: usize, whole: Option<&Arc<str>>) -> Option<Self> {
        let suffix = &text[from..];
        let head = &suffix[..suffix.find("{{").unwrap_or(suffix.len())];
        // Everything after the leading literal: a placeholder first.
        let (mut rest, mut tail) = (Vec::new(), &suffix[head.len()..]);
        while let Some(start) = tail.find("{{") {
            rest.extend(literal(&tail[..start], whole));
            let after = &tail[start + 2..];
            let end = after.find("}}")?;
            let inner = after[..end].trim();
            if inner.is_empty() {
                return None;
            }
            let (source, name) = match inner.split_once(':') {
                Some((src, n)) => (Some(src.trim().into()), n.trim().into()),
                None => (None, inner.into()),
            };
            rest.push(Segment::Placeholder { source, name });
            tail = &after[end + 2..];
        }
        rest.extend(literal(tail, whole));
        let (keep, joined) = match prev.last() {
            // One slice of `text`, hashed by resuming its old literal's hash.
            Some(Segment::Literal(last)) if !head.is_empty() => {
                let merged = &text[from - last.text().len()..from + head.len()];
                let hash = fnv1a_extend(last.hash(), head.as_bytes());
                let merged = TextSegment::from_shared(share(merged, whole), hash);
                (prev.len() - 1, Some(Segment::Literal(merged)))
            }
            _ => (prev.len(), literal(head, whole)),
        };
        // Every part has an exact length, so this is one allocation.
        let kept = prev[..keep].iter().cloned();
        let segments = kept.chain(joined).chain(rest).collect();
        Some(Self { segments })
    }
}

/// `slice`, a slice of the text being parsed, as a shared string: `whole`,
/// the text's own allocation, when the slice is all of it.
fn share(slice: &str, whole: Option<&Arc<str>>) -> Arc<str> {
    match whole {
        Some(whole) if whole.len() == slice.len() => Arc::clone(whole),
        _ => slice.into(),
    }
}

fn literal(text: &str, whole: Option<&Arc<str>>) -> Option<Segment> {
    let hash = fnv1a(text.as_bytes());
    (!text.is_empty()).then(|| Segment::Literal(TextSegment::from_shared(share(text, whole), hash)))
}

/// A prompt text and its parse, made together (a P entry's version and its
/// ref_log record, a view's resolution, an inline or lowered GEN prompt).
/// It reads as its `str`, compares and hashes by that text alone, and
/// serializes as the bare string, parsed again when read back.
#[derive(Clone)]
pub struct PromptText {
    text: Arc<str>,
    /// `None` when the text is malformed: a render then fails as a parse
    /// of the text does.
    parse: Option<ParsedTemplate>,
}

impl PromptText {
    /// Parse `text`. A text without placeholders is one literal, which
    /// shares the text's allocation.
    #[must_use]
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        let text = text.into();
        let parse = ParsedTemplate::extend(&[], &text, 0, Some(&text));
        Self { text, parse }
    }

    /// The text `next` of a version made from this one. When `next` starts
    /// with this text (an APPEND, EXPAND or `auto_refine` step), its parse
    /// is this one extended by the new part: O(suffix), every segment but
    /// the last literal shared, and that one is `next` itself when it
    /// spans the whole text. Otherwise `next` is parsed whole.
    #[must_use]
    pub fn successor(&self, next: impl Into<Arc<str>>) -> Self {
        let next = next.into();
        match &self.parse {
            Some(parse) if next.starts_with(&*self.text) && !self.text.ends_with('{') => {
                let parse =
                    ParsedTemplate::extend(parse.segments(), &next, self.text.len(), Some(&next));
                Self { text: next, parse }
            }
            _ => Self::new(next),
        }
    }

    /// The text's allocation, which every clone shares.
    #[must_use]
    pub fn shared(&self) -> &Arc<str> {
        &self.text
    }

    /// The parse, or `None` when the text is malformed.
    #[must_use]
    pub fn parsed(&self) -> Option<&ParsedTemplate> {
        self.parse.as_ref()
    }

    /// Render as a [`SegmentedText`], resolving placeholders from `params`
    /// then `context`: each literal as its shared, pre-hashed segment, each
    /// placeholder as one owned segment of its value. The segment
    /// boundaries let the engine recognize and memoize the shared prefix
    /// (see the `spear-llm` token interner).
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::UnboundPlaceholder`] if a placeholder resolves
    /// nowhere, and [`SpearError::MalformedTemplate`] on syntax errors.
    pub fn render(
        &self,
        params: &BTreeMap<String, Value>,
        context: &Context,
    ) -> Result<SegmentedText> {
        let parse = self.parse.as_ref().ok_or_else(|| malformed(&self.text))?;
        let mut out = SegmentedText::new();
        for seg in parse.segments() {
            match seg {
                Segment::Literal(text) => out.push_segment(text.clone()),
                Segment::Placeholder { source, name } => {
                    let v =
                        resolve_placeholder(&self.text, source.as_deref(), name, params, context)?;
                    out.push(v.render());
                }
            }
        }
        Ok(out)
    }
}

impl Deref for PromptText {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl<T: Into<Arc<str>>> From<T> for PromptText {
    fn from(text: T) -> Self {
        Self::new(text)
    }
}

impl PartialEq for PromptText {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for PromptText {}

impl fmt::Debug for PromptText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl fmt::Display for PromptText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl Serialize for PromptText {
    fn serialize_content(&self) -> Content {
        self.text.serialize_content()
    }
}

impl Deserialize for PromptText {
    fn deserialize_content(content: &Content) -> std::result::Result<Self, DeError> {
        String::deserialize_content(content).map(Self::new)
    }
}

/// Split a template into literal and placeholder segments.
///
/// # Errors
///
/// Returns [`SpearError::MalformedTemplate`] on an unclosed or empty `{{`.
pub fn parse(template: &str) -> Result<ParsedTemplate> {
    ParsedTemplate::extend(&[], template, 0, None).ok_or_else(|| malformed(template))
}

fn malformed(template: &str) -> SpearError {
    SpearError::MalformedTemplate(truncate(template))
}

/// Resolve one placeholder against `params` then `context`.
fn resolve_placeholder(
    template: &str,
    source: Option<&str>,
    name: &str,
    params: &BTreeMap<String, Value>,
    context: &Context,
) -> Result<Value> {
    let resolved: Option<Value> = match source {
        None => params.get(name).cloned().or_else(|| context.get(name)),
        Some("param") => params.get(name).cloned(),
        Some("ctx") => context.get(name),
        Some("view") => {
            return Err(SpearError::InvalidPipeline(format!(
                "template still contains uninstantiated view reference \
                 {{{{view:{name}}}}}; instantiate it through the ViewCatalog"
            )));
        }
        Some(other) => {
            return Err(SpearError::MalformedTemplate(format!(
                "unknown placeholder source {other:?} in {}",
                truncate(template)
            )));
        }
    };
    resolved.ok_or_else(|| SpearError::UnboundPlaceholder {
        placeholder: name.to_string(),
        template: truncate(template),
    })
}

/// Render a bare `template` string as [`PromptText::render`] renders a
/// prompt text, parsing it first.
///
/// # Errors
///
/// Same contract as [`PromptText::render`].
pub fn render_segmented(
    template: &str,
    params: &BTreeMap<String, Value>,
    context: &Context,
) -> Result<SegmentedText> {
    PromptText::new(template).render(params, context)
}

fn truncate(template: &str) -> String {
    const HEAD: usize = 80;
    if template.len() <= HEAD {
        template.to_string()
    } else {
        let mut end = HEAD;
        while !template.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &template[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RefinementMode;
    use crate::prompt::PromptEntry;
    use crate::value::map;
    use crate::view::{ViewCatalog, ViewDef};

    fn render(t: &str, params: &BTreeMap<String, Value>, context: &Context) -> Result<String> {
        Ok(render_segmented(t, params, context)?.join())
    }

    fn params(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn literal_passthrough() {
        let ctx = Context::new();
        assert_eq!(
            render("no placeholders here", &BTreeMap::new(), &ctx).unwrap(),
            "no placeholders here"
        );
    }

    #[test]
    fn params_take_precedence_over_context() {
        let mut ctx = Context::new();
        ctx.set("drug", Value::from("Heparin"));
        let p = params(&[("drug", Value::from("Enoxaparin"))]);
        assert_eq!(
            render("Use of {{drug}}.", &p, &ctx).unwrap(),
            "Use of Enoxaparin."
        );
        // Explicit sources override the search order.
        assert_eq!(
            render("{{ctx:drug}} vs {{param:drug}}", &p, &ctx).unwrap(),
            "Heparin vs Enoxaparin"
        );
    }

    #[test]
    fn context_fallback() {
        let mut ctx = Context::new();
        ctx.set("notes", Value::from("patient stable"));
        assert_eq!(
            render("Notes: {{notes}}", &BTreeMap::new(), &ctx).unwrap(),
            "Notes: patient stable"
        );
    }

    #[test]
    fn unbound_placeholder_is_an_error() {
        let err = render("{{missing}}", &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(matches!(err, SpearError::UnboundPlaceholder { .. }));
    }

    #[test]
    fn unclosed_brace_is_malformed() {
        let err = render("bad {{oops", &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(matches!(err, SpearError::MalformedTemplate(_)));
    }

    #[test]
    fn empty_placeholder_is_malformed() {
        assert!(matches!(
            parse("{{ }}"),
            Err(SpearError::MalformedTemplate(_))
        ));
    }

    #[test]
    fn uninstantiated_view_reference_is_caught() {
        let err = render("{{view:base}}", &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(matches!(err, SpearError::InvalidPipeline(_)));
    }

    #[test]
    fn unknown_source_prefix_is_malformed() {
        let err = render("{{env:HOME}}", &BTreeMap::new(), &Context::new()).unwrap_err();
        assert!(matches!(err, SpearError::MalformedTemplate(_)));
    }

    #[test]
    fn compound_values_render_as_json() {
        let mut ctx = Context::new();
        ctx.set("labs", map([("d_dimer", Value::from(2.1))]));
        let s = render("Labs: {{labs}}", &BTreeMap::new(), &ctx).unwrap();
        assert!(s.contains("d_dimer"));
    }

    #[test]
    fn whitespace_inside_braces_is_tolerated() {
        let p = params(&[("x", Value::from(1))]);
        assert_eq!(
            render("{{ x }} and {{ param:x }}", &p, &Context::new()).unwrap(),
            "1 and 1"
        );
    }

    #[test]
    fn segmented_render_joins_to_flat_render() {
        let mut ctx = Context::new();
        ctx.set("item", Value::from("case 7: ledger gasket"));
        let p = params(&[("limit", Value::from(50))]);
        let template = "Guidelines apply.\nItem: {{ctx:item}}\nWord limit {{param:limit}}.";
        let flat = render(template, &p, &ctx).unwrap();
        let segmented = render_segmented(template, &p, &ctx).unwrap();
        assert_eq!(segmented.join(), flat);
        assert!(segmented.len() >= 4, "literals and values alternate");
    }

    #[test]
    fn segmented_render_shares_literals_across_renders() {
        // A literal is its parse's, and a parse is its text's: two renders
        // of one entry share the literal's allocation, and so do two
        // instantiations of one view. Two equal bare strings are parsed
        // apart, so their renders do not.
        let mut ctx = Context::new();
        ctx.set("x", Value::from("a"));
        let template = "prefix that is shared {{ctx:x}} suffix";
        let head = |s: &SegmentedText| s.segments()[0].text().as_ptr();

        let entry = PromptEntry::new(template, "f", RefinementMode::Manual);
        let a = entry.render_segmented(&ctx).unwrap();
        let b = entry.render_segmented(&ctx).unwrap();
        assert_eq!(a, b);
        assert!(std::ptr::eq(head(&a), head(&b)), "two renders of one entry");

        let views = ViewCatalog::new();
        views.register(ViewDef::new("v", template));
        let c = views.instantiate("v", BTreeMap::new()).unwrap();
        let d = views.instantiate("v", BTreeMap::new()).unwrap();
        let (c, d) = (
            c.render_segmented(&ctx).unwrap(),
            d.render_segmented(&ctx).unwrap(),
        );
        assert_eq!(c, a);
        assert!(
            std::ptr::eq(head(&c), head(&d)),
            "two instantiations of one view"
        );

        let e = render_segmented(template, &BTreeMap::new(), &ctx).unwrap();
        let f = render_segmented(template, &BTreeMap::new(), &ctx).unwrap();
        assert_eq!(e, f);
        assert!(
            !std::ptr::eq(head(&e), head(&f)),
            "bare strings parse apart"
        );
    }

    #[test]
    fn segmented_render_propagates_errors_like_flat_render() {
        let ctx = Context::new();
        assert!(matches!(
            render_segmented("{{missing}}", &BTreeMap::new(), &ctx),
            Err(SpearError::UnboundPlaceholder { .. })
        ));
        assert!(matches!(
            render_segmented("bad {{oops", &BTreeMap::new(), &ctx),
            Err(SpearError::MalformedTemplate(_))
        ));
        assert!(matches!(
            render_segmented("{{view:base}}", &BTreeMap::new(), &ctx),
            Err(SpearError::InvalidPipeline(_))
        ));
    }

    #[test]
    fn multibyte_template_truncation_is_safe() {
        let long = "é".repeat(200);
        let err = render(&format!("{long}{{{{x"), &BTreeMap::new(), &Context::new());
        assert!(err.is_err()); // must not panic on char boundaries
    }
}
