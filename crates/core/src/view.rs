//! Prompt views (paper §4.2).
//!
//! "A view is a reusable named prompt that encapsulates structured prompt
//! construction. Much like views in a database system, SPEAR views abstract
//! recurring prompt patterns and enable their reuse across tasks, contexts,
//! and runtime conditions." Views are *parameterized* (declared parameters
//! with optional defaults), *composable* (templates may reference other
//! views with `{{view:name}}`), *versioned* (re-registering bumps the
//! version), and *taggable* (for runtime dispatch across note types).
//!
//! Like a database view, a view is resolved (composition expanded,
//! parameter specs flattened, the text parsed) once per catalog state;
//! every instantiation until the next [`ViewCatalog::register`] shares that
//! one text and its parse.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use spear_kv::KvStore;

use crate::error::{Result, SpearError};
use crate::history::RefinementMode;
use crate::prompt::{PromptEntry, PromptOrigin};
use crate::template::{self, PromptText, Segment};
use crate::value::Value;

/// A declared view parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Parameter name (matched against `{{name}}` in the template).
    pub name: String,
    /// Whether instantiation must supply it.
    pub required: bool,
    /// Default used when not supplied (only meaningful if not required).
    pub default: Option<Value>,
}

impl ParamSpec {
    /// A required parameter.
    #[must_use]
    pub fn required(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            required: true,
            default: None,
        }
    }

    /// An optional parameter with a default.
    #[must_use]
    pub fn optional(name: impl Into<String>, default: impl Into<Value>) -> Self {
        Self {
            name: name.into(),
            required: false,
            default: Some(default.into()),
        }
    }
}

/// A named, versioned prompt view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Template text; may contain `{{param}}` and `{{view:other}}`.
    pub template: String,
    /// Declared parameters.
    pub params: Vec<ParamSpec>,
    /// Tags for dispatch (e.g. `"discharge_summary"`).
    pub tags: BTreeSet<String>,
    /// Version, managed by the catalog (1 on first registration).
    pub version: u64,
    /// Human-readable description.
    pub description: String,
}

impl ViewDef {
    /// Create a view definition (version is assigned at registration).
    #[must_use]
    pub fn new(name: impl Into<String>, template: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            template: template.into(),
            params: Vec::new(),
            tags: BTreeSet::new(),
            version: 0,
            description: String::new(),
        }
    }

    /// Builder-style: declare a parameter.
    #[must_use]
    pub fn with_param(mut self, spec: ParamSpec) -> Self {
        self.params.push(spec);
        self
    }

    /// Builder-style: add a tag.
    #[must_use]
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tags.insert(tag.into());
        self
    }

    /// Builder-style: set the description.
    #[must_use]
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }
}

/// Stable hash of instantiation arguments, used in cache identities.
#[must_use]
pub fn param_hash(args: &BTreeMap<String, Value>) -> u64 {
    use std::fmt::Write as _;
    // `k=v;` per argument, `v` as `Value::render` spells it, folded
    // straight into the hash.
    let mut hash = crate::identity::Fnv1aSink::new();
    for (k, v) in args {
        let _ = match v {
            Value::Str(s) => write!(hash, "{k}={s};"),
            other => write!(hash, "{k}={other};"),
        };
    }
    hash.0
}

/// A view resolved against one catalog state: what its instantiations share.
#[derive(Debug)]
struct ResolvedView {
    view: Arc<ViewDef>,
    /// The template with every `{{view:child}}` reference expanded, and
    /// its parse.
    text: PromptText,
    /// Parameter specs of the view and of every view it composes.
    specs: Vec<ParamSpec>,
}

/// The catalog of registered views.
///
/// Cloning the catalog clones the handle (shared storage): a runtime's lanes
/// and a cluster's node threads read one catalog, and lanes write its
/// resolution cache, so its state sits under one lock.
#[derive(Clone, Debug, Default)]
pub struct ViewCatalog {
    inner: Arc<RwLock<Catalog>>,
}

/// The state behind a [`ViewCatalog`]'s lock. Its helpers take the guarded
/// value, never the handle: the lock is not re-entrant.
#[derive(Debug, Default)]
struct Catalog {
    store: KvStore<ViewDef>,
    /// Resolutions of the current catalog state, by view name. Any
    /// registration may change any composing view, so `register` empties it.
    resolved: BTreeMap<String, Arc<ResolvedView>>,
}

impl ViewCatalog {
    /// Empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) a view. Returns the assigned version:
    /// 1 for a new view, previous+1 when redefining.
    pub fn register(&self, mut view: ViewDef) -> u64 {
        // One write guard covers the store and its resolutions, so no
        // resolution read from the previous state outlives the write.
        let mut catalog = self.inner.write();
        let next = catalog.store.get(&view.name).map_or(1, |v| v.version + 1);
        view.version = next;
        catalog.store.put(view.name.clone(), view);
        catalog.resolved.clear();
        next
    }

    /// Fetch the latest definition of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::ViewNotFound`] when absent.
    pub fn get(&self, name: &str) -> Result<Arc<ViewDef>> {
        self.inner.read().get(name)
    }

    /// Fetch a historical version of `name` (if still retained).
    ///
    /// # Errors
    ///
    /// Returns [`SpearError::ViewNotFound`] when absent.
    pub fn get_version(&self, name: &str, version: u64) -> Result<Arc<ViewDef>> {
        // `register` is the only writer and stamps each view with the
        // store's per-key version, so the two numberings agree.
        self.inner
            .read()
            .store
            .get_version(name, version)
            .ok_or_else(|| SpearError::ViewNotFound(format!("{name}@v{version}")))
    }

    /// Whether `name` is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().store.contains(name)
    }

    /// All view names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.inner.read().store.keys()
    }

    /// Names of views carrying `tag`, sorted — the dispatch primitive behind
    /// "different types of input notes may invoke different views".
    #[must_use]
    pub fn names_with_tag(&self, tag: &str) -> Vec<String> {
        let catalog = self.inner.read();
        catalog
            .store
            .keys()
            .into_iter()
            .filter(|n| catalog.store.get(n).is_some_and(|v| v.tags.contains(tag)))
            .collect()
    }

    /// Instantiate `name` with `args` into a [`PromptEntry`].
    ///
    /// Composition: `{{view:child}}` references in the template are expanded
    /// recursively (children see the same argument map). Parameter
    /// placeholders stay in the entry's text; supplied arguments and
    /// defaults become entry params, so the entry renders against context at
    /// GEN time like any other structured prompt.
    ///
    /// # Errors
    ///
    /// [`SpearError::ViewNotFound`], [`SpearError::MissingViewParam`], or
    /// [`SpearError::ViewCycle`].
    pub fn instantiate(&self, name: &str, args: BTreeMap<String, Value>) -> Result<PromptEntry> {
        let resolved = self.resolve(name)?;

        // Defaults of the declared params that were not supplied.
        let mut params = BTreeMap::new();
        for spec in &resolved.specs {
            if args.contains_key(&spec.name) {
                continue;
            }
            match (spec.required, &spec.default) {
                (true, _) => {
                    return Err(SpearError::MissingViewParam {
                        view: name.to_string(),
                        param: spec.name.clone(),
                    })
                }
                (false, Some(d)) => {
                    params.insert(spec.name.clone(), d.clone());
                }
                (false, None) => {}
            }
        }
        let hash = param_hash(&args);
        // Every supplied argument is kept, declared or not (views can be
        // under-declared; template rendering will use them).
        params.extend(args);

        let mut entry = PromptEntry::new(
            resolved.text.clone(),
            &format!("view:{name}"),
            RefinementMode::Manual,
        )
        .with_origin(PromptOrigin::View {
            name: name.to_string(),
            version: resolved.view.version,
            param_hash: hash,
        });
        entry.params = params;
        entry.tags = resolved.view.tags.clone();
        Ok(entry)
    }

    /// The resolution of `name` in the current catalog state, computed by
    /// its first instantiation since the last `register`.
    fn resolve(&self, name: &str) -> Result<Arc<ResolvedView>> {
        if let Some(hit) = self.inner.read().resolved.get(name) {
            return Ok(Arc::clone(hit));
        }
        let mut catalog = self.inner.write();
        if let Some(raced) = catalog.resolved.get(name) {
            return Ok(Arc::clone(raced));
        }
        let view = catalog.get(name)?;
        let text = PromptText::new(catalog.expand(&view, &mut Vec::new())?);
        let specs = catalog.all_param_specs(&view)?;
        let entry = Arc::new(ResolvedView { view, text, specs });
        catalog
            .resolved
            .insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }
}

impl Catalog {
    fn get(&self, name: &str) -> Result<Arc<ViewDef>> {
        self.store
            .get(name)
            .ok_or_else(|| SpearError::ViewNotFound(name.to_string()))
    }

    /// Recursively expand `{{view:child}}` references.
    fn expand(&self, view: &ViewDef, path: &mut Vec<String>) -> Result<String> {
        if path.contains(&view.name) {
            let mut cycle = path.clone();
            cycle.push(view.name.clone());
            return Err(SpearError::ViewCycle(cycle));
        }
        path.push(view.name.clone());
        let mut out = String::with_capacity(view.template.len());
        for seg in template::parse(&view.template)?.segments() {
            match seg {
                Segment::Literal(text) => out.push_str(text.text()),
                Segment::Placeholder { source, name } => {
                    if source.as_deref() == Some("view") {
                        let child = self.get(name)?;
                        out.push_str(&self.expand(&child, path)?);
                    } else {
                        // Re-emit non-view placeholders verbatim for GEN-time
                        // rendering.
                        out.push_str("{{");
                        if let Some(src) = source {
                            out.push_str(src);
                            out.push(':');
                        }
                        out.push_str(name);
                        out.push_str("}}");
                    }
                }
            }
        }
        path.pop();
        Ok(out)
    }

    /// Parameter specs of a view plus all views it (transitively) composes.
    fn all_param_specs(&self, view: &Arc<ViewDef>) -> Result<Vec<ParamSpec>> {
        let mut specs = Vec::new();
        let mut stack = vec![Arc::clone(view)];
        let mut seen = BTreeSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v.name.clone()) {
                continue; // cycle handled by expand(); avoid looping here
            }
            specs.extend(v.params.iter().cloned());
            for seg in template::parse(&v.template)?.segments() {
                if let Segment::Placeholder {
                    source: Some(src),
                    name,
                } = seg
                {
                    if &**src == "view" {
                        if let Ok(child) = self.get(name) {
                            stack.push(child);
                        }
                    }
                }
            }
        }
        Ok(specs)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect()
    }

    fn catalog() -> ViewCatalog {
        let c = ViewCatalog::new();
        c.register(
            ViewDef::new(
                "med_summary",
                "Summarize the patient's medication history and highlight any use of {{drug}}.",
            )
            .with_param(ParamSpec::required("drug"))
            .with_tag("clinical"),
        );
        c
    }

    #[test]
    fn register_and_instantiate() {
        let c = catalog();
        let entry = c
            .instantiate("med_summary", args(&[("drug", Value::from("Enoxaparin"))]))
            .unwrap();
        assert!(
            entry.text.contains("{{drug}}"),
            "placeholder kept for render"
        );
        assert_eq!(
            entry.params.get("drug").unwrap().as_str(),
            Some("Enoxaparin")
        );
        assert!(entry.derives_from_view("med_summary"));
        assert!(entry.tags.contains("clinical"));

        let rendered = entry.render(&crate::context::Context::new()).unwrap();
        assert!(rendered.contains("Enoxaparin"));
    }

    #[test]
    fn missing_required_param_errors() {
        let c = catalog();
        let err = c.instantiate("med_summary", BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SpearError::MissingViewParam { .. }));
    }

    #[test]
    fn optional_params_take_defaults() {
        let c = ViewCatalog::new();
        c.register(
            ViewDef::new("limited", "Answer in at most {{word_limit}} words.")
                .with_param(ParamSpec::optional("word_limit", 50)),
        );
        let entry = c.instantiate("limited", BTreeMap::new()).unwrap();
        assert_eq!(entry.params.get("word_limit").unwrap().as_i64(), Some(50));
    }

    #[test]
    fn reregistration_bumps_version() {
        let c = catalog();
        assert_eq!(c.get("med_summary").unwrap().version, 1);
        let v2 = c.register(ViewDef::new("med_summary", "revised template {{drug}}"));
        assert_eq!(v2, 2);
        assert_eq!(c.get("med_summary").unwrap().version, 2);
        // Old version remains retrievable.
        let v1 = c.get_version("med_summary", 1).unwrap();
        assert!(v1.template.contains("highlight"));
    }

    #[test]
    fn composition_expands_nested_views() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("format", "Respond in bullet points."));
        c.register(
            ViewDef::new(
                "med_justification",
                "Why was {{drug}} administered?\n{{view:format}}",
            )
            .with_param(ParamSpec::required("drug")),
        );
        let entry = c
            .instantiate(
                "med_justification",
                args(&[("drug", Value::from("Enoxaparin"))]),
            )
            .unwrap();
        assert!(entry.text.contains("bullet points"));
        assert!(!entry.text.contains("view:"));
    }

    #[test]
    fn composition_cycles_are_detected() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("a", "A then {{view:b}}"));
        c.register(ViewDef::new("b", "B then {{view:a}}"));
        let err = c.instantiate("a", BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SpearError::ViewCycle(_)));
    }

    #[test]
    fn reregistering_a_child_changes_the_parents_next_instantiation() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("format", "Respond in bullet points."));
        c.register(ViewDef::new("outer", "Task.\n{{view:format}}"));
        let before = c.instantiate("outer", BTreeMap::new()).unwrap();
        let again = c.instantiate("outer", BTreeMap::new()).unwrap();
        assert_eq!(&*before.text, "Task.\nRespond in bullet points.");
        assert!(
            Arc::ptr_eq(before.text.shared(), again.text.shared()),
            "one catalog state resolves a view once"
        );

        // Only the child is re-registered; the parent's definition, version
        // and cached resolution are untouched by name.
        c.register(
            ViewDef::new("format", "Respond in {{n}} sentences.")
                .with_param(ParamSpec::optional("n", 2)),
        );
        let after = c.instantiate("outer", BTreeMap::new()).unwrap();
        assert_eq!(&*after.text, "Task.\nRespond in {{n}} sentences.");
        assert_eq!(after.params.get("n").unwrap().as_i64(), Some(2));
        assert!(matches!(
            after.origin,
            PromptOrigin::View { version: 1, .. }
        ));
        // A handle cloned earlier sees the same state.
        let handle = c.clone();
        c.register(ViewDef::new("format", "Respond tersely."));
        let seen = handle.instantiate("outer", BTreeMap::new()).unwrap();
        assert_eq!(&*seen.text, "Task.\nRespond tersely.");
    }

    #[test]
    fn lanes_racing_registrations_see_whole_catalog_states() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("format", "Respond in style 0."));
        c.register(ViewDef::new("outer", "Task.\n{{view:format}}"));
        let styles = 50;
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for style in 1..=styles {
                    c.register(ViewDef::new("format", format!("Respond in style {style}.")));
                }
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    let mut last = 0;
                    for _ in 0..200 {
                        let entry = c.instantiate("outer", BTreeMap::new()).unwrap();
                        let style: u64 = entry
                            .text
                            .strip_prefix("Task.\nRespond in style ")
                            .and_then(|rest| rest.strip_suffix('.'))
                            .and_then(|n| n.parse().ok())
                            .unwrap_or_else(|| panic!("torn resolution {:?}", entry.text));
                        assert!(style >= last, "a resolution went back in time");
                        last = style;
                    }
                });
            }
        });
        let last = c.instantiate("outer", BTreeMap::new()).unwrap();
        assert_eq!(&*last.text, format!("Task.\nRespond in style {styles}."));
        assert_eq!(c.get("format").unwrap().version, styles + 1);
    }

    #[test]
    fn a_cycle_introduced_after_a_resolution_is_still_reported() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("b", "B."));
        c.register(ViewDef::new("a", "A then {{view:b}}"));
        assert_eq!(
            &*c.instantiate("a", BTreeMap::new()).unwrap().text,
            "A then B."
        );
        c.register(ViewDef::new("b", "B then {{view:a}}"));
        for _ in 0..2 {
            let err = c.instantiate("a", BTreeMap::new()).unwrap_err();
            assert!(matches!(err, SpearError::ViewCycle(_)), "{err}");
        }
        // Breaking the cycle resolves again.
        c.register(ViewDef::new("b", "B again."));
        assert_eq!(
            &*c.instantiate("a", BTreeMap::new()).unwrap().text,
            "A then B again."
        );
    }

    #[test]
    fn nested_required_params_are_enforced() {
        let c = ViewCatalog::new();
        c.register(
            ViewDef::new("inner", "Focus on {{topic}}.").with_param(ParamSpec::required("topic")),
        );
        c.register(ViewDef::new("outer", "Task.\n{{view:inner}}"));
        assert!(matches!(
            c.instantiate("outer", BTreeMap::new()),
            Err(SpearError::MissingViewParam { .. })
        ));
        assert!(c
            .instantiate("outer", args(&[("topic", Value::from("dosage"))]))
            .is_ok());
    }

    #[test]
    fn tag_dispatch_lists_matching_views() {
        let c = ViewCatalog::new();
        c.register(ViewDef::new("discharge_summary", "t").with_tag("discharge"));
        c.register(ViewDef::new("radiology_summary", "t").with_tag("radiology"));
        c.register(ViewDef::new("nursing_note", "t").with_tag("nursing"));
        assert_eq!(
            c.names_with_tag("radiology"),
            vec!["radiology_summary".to_string()]
        );
        assert!(c.names_with_tag("none").is_empty());
    }

    #[test]
    fn param_hash_is_stable_and_order_independent() {
        let a = args(&[("x", Value::from(1)), ("y", Value::from("z"))]);
        let mut b = BTreeMap::new();
        b.insert("y".to_string(), Value::from("z"));
        b.insert("x".to_string(), Value::from(1));
        assert_eq!(param_hash(&a), param_hash(&b));
        let c = args(&[("x", Value::from(2)), ("y", Value::from("z"))]);
        assert_ne!(param_hash(&a), param_hash(&c));
    }

    #[test]
    fn unknown_view_errors() {
        let c = ViewCatalog::new();
        assert!(matches!(
            c.instantiate("ghost", BTreeMap::new()),
            Err(SpearError::ViewNotFound(_))
        ));
        assert!(!c.contains("ghost"));
    }

    #[test]
    fn extra_args_are_preserved() {
        let c = catalog();
        let entry = c
            .instantiate(
                "med_summary",
                args(&[
                    ("drug", Value::from("Enoxaparin")),
                    ("audience", Value::from("nurse")),
                ]),
            )
            .unwrap();
        assert_eq!(
            entry.params.get("audience").unwrap().as_str(),
            Some("nurse")
        );
    }
}
