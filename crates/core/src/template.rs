//! Prompt-text templating.
//!
//! Prompt fragments in P are "possibly parameterized with variables from
//! context C" (paper §3.1). Templates use `{{name}}` placeholders that
//! resolve, in order, against (1) the entry's own parameters, (2) the
//! runtime context, with the explicit forms `{{param:name}}` and
//! `{{ctx:name}}` pinning one source. The `{{view:name}}` form is resolved
//! earlier, at view-instantiation time (see [`crate::view`]); encountering it
//! here is an error, which catches views that were never instantiated.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use spear_kv::shard::fnv1a;

use crate::context::Context;
use crate::error::{Result, SpearError};
use crate::segment::{SegmentedText, TextSegment};
use crate::value::Value;

/// One parsed segment of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Literal text.
    Text(String),
    /// A `{{...}}` placeholder, with its optional `source:` prefix split off.
    Placeholder {
        /// `None` for plain `{{name}}`; `Some("ctx")`, `Some("param")`, or
        /// `Some("view")` for the prefixed forms.
        source: Option<String>,
        /// The placeholder name.
        name: String,
    },
}

/// Split a template into literal and placeholder segments.
///
/// # Errors
///
/// Returns [`SpearError::MalformedTemplate`] on an unclosed `{{`.
pub fn parse(template: &str) -> Result<Vec<Segment>> {
    let mut segments = Vec::new();
    let mut rest = template;
    while let Some(start) = rest.find("{{") {
        if !rest[..start].is_empty() {
            segments.push(Segment::Text(rest[..start].to_string()));
        }
        let after = &rest[start + 2..];
        let Some(end) = after.find("}}") else {
            return Err(SpearError::MalformedTemplate(truncate(template)));
        };
        let inner = after[..end].trim();
        if inner.is_empty() {
            return Err(SpearError::MalformedTemplate(truncate(template)));
        }
        let (source, name) = match inner.split_once(':') {
            Some((src, n)) => (Some(src.trim().to_string()), n.trim().to_string()),
            None => (None, inner.to_string()),
        };
        segments.push(Segment::Placeholder { source, name });
        rest = &after[end + 2..];
    }
    if !rest.is_empty() {
        segments.push(Segment::Text(rest.to_string()));
    }
    Ok(segments)
}

/// Names of all placeholders in `template`, in order of first appearance
/// (view references excluded — those are resolved at instantiation time).
///
/// # Errors
///
/// Propagates parse errors.
pub fn placeholders(template: &str) -> Result<Vec<String>> {
    let mut names = Vec::new();
    for seg in parse(template)? {
        if let Segment::Placeholder { source, name } = seg {
            if source.as_deref() != Some("view") && !names.contains(&name) {
                names.push(name);
            }
        }
    }
    Ok(names)
}

/// One segment of a cached parse: literals are shared, pre-hashed `Arc`s,
/// so a view prefix rendered on every request of a family is allocated and
/// hashed once per distinct template, not once per render.
#[derive(Debug)]
pub(crate) enum ParsedSegment {
    Literal {
        text: Arc<str>,
        hash: u64,
    },
    Placeholder {
        source: Option<String>,
        name: String,
    },
}

/// A template's cached parse. Shared process-wide through the parse cache
/// and pinned into compiled-program constant pools (see [`crate::vm`]).
#[derive(Debug)]
pub(crate) struct ParsedTemplate {
    segments: Vec<ParsedSegment>,
}

/// Distinct templates cached before the parse cache resets. Templates are
/// a small static population (views, store entries); the bound only guards
/// against a pathological stream of generated templates.
const PARSE_CACHE_CAPACITY: usize = 1024;

/// Parse `template`, memoized process-wide. Keyed by the full template
/// string (exact, no hash-collision exposure); parse errors are not cached.
pub(crate) fn parse_shared(template: &str) -> Result<Arc<ParsedTemplate>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<ParsedTemplate>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(parsed) = cache.lock().get(template) {
        return Ok(Arc::clone(parsed));
    }
    let segments = parse(template)?
        .into_iter()
        .map(|seg| match seg {
            Segment::Text(t) => {
                let text: Arc<str> = t.into();
                ParsedSegment::Literal {
                    hash: fnv1a(text.as_bytes()),
                    text,
                }
            }
            Segment::Placeholder { source, name } => ParsedSegment::Placeholder { source, name },
        })
        .collect();
    let parsed = Arc::new(ParsedTemplate { segments });
    let mut map = cache.lock();
    if map.len() >= PARSE_CACHE_CAPACITY {
        map.clear();
    }
    Ok(Arc::clone(
        map.entry(template.to_string()).or_insert(parsed),
    ))
}

/// Resolve one placeholder against `params` then `context`, with the same
/// error behaviour [`render`] has always had.
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

/// Render `template`, resolving placeholders from `params` then `context`.
///
/// # Errors
///
/// Returns [`SpearError::UnboundPlaceholder`] if a placeholder resolves
/// nowhere, and [`SpearError::MalformedTemplate`] on syntax errors.
pub fn render(
    template: &str,
    params: &BTreeMap<String, Value>,
    context: &Context,
) -> Result<String> {
    let parsed = parse_shared(template)?;
    let mut out = String::with_capacity(template.len());
    for seg in &parsed.segments {
        match seg {
            ParsedSegment::Literal { text, .. } => out.push_str(text),
            ParsedSegment::Placeholder { source, name } => {
                let v = resolve_placeholder(template, source.as_deref(), name, params, context)?;
                out.push_str(&v.render());
            }
        }
    }
    Ok(out)
}

/// Render `template` as a [`SegmentedText`]: one shared, pre-hashed segment
/// per literal and one owned segment per resolved placeholder value. The
/// joined segments are byte-identical to [`render`]'s output; the segment
/// boundaries are what lets the engine recognize and memoize the shared
/// prefix (see the `spear-llm` token interner).
///
/// # Errors
///
/// Same contract as [`render`].
pub fn render_segmented(
    template: &str,
    params: &BTreeMap<String, Value>,
    context: &Context,
) -> Result<SegmentedText> {
    render_segmented_parsed(&*parse_shared(template)?, template, params, context)
}

/// [`render_segmented`] over an already-parsed template — the compiled-VM
/// fast path, which pins the `Arc<ParsedTemplate>` in its constant pool
/// and skips the parse-cache lookup per render. `template` is the source
/// text, used only for error messages.
///
/// # Errors
///
/// Same contract as [`render`].
pub(crate) fn render_segmented_parsed(
    parsed: &ParsedTemplate,
    template: &str,
    params: &BTreeMap<String, Value>,
    context: &Context,
) -> Result<SegmentedText> {
    let mut out = SegmentedText::new();
    for seg in &parsed.segments {
        match seg {
            ParsedSegment::Literal { text, hash } => {
                out.push_segment(TextSegment::from_shared(Arc::clone(text), *hash));
            }
            ParsedSegment::Placeholder { source, name } => {
                let v = resolve_placeholder(template, source.as_deref(), name, params, context)?;
                out.push(v.render());
            }
        }
    }
    Ok(out)
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
    use crate::value::map;

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
    fn placeholders_lists_unique_names_in_order() {
        let names = placeholders("{{a}} {{b}} {{a}} {{ctx:c}} {{view:ignored}}").unwrap();
        assert_eq!(names, vec!["a", "b", "c"]);
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
        let mut ctx = Context::new();
        ctx.set("x", Value::from("a"));
        let template = "prefix that is shared {{ctx:x}} suffix";
        let a = render_segmented(template, &BTreeMap::new(), &ctx).unwrap();
        let b = render_segmented(template, &BTreeMap::new(), &ctx).unwrap();
        assert_eq!(a, b);
        assert!(
            std::ptr::eq(
                a.segments()[0].text().as_ptr(),
                b.segments()[0].text().as_ptr()
            ),
            "the literal prefix must come from the shared parse cache"
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
