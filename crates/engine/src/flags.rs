//! On-the-fly condition flags (paper, Section 5).
//!
//! "Simple conditions comparing a path with a constant can be evaluated on
//! the fly while reading the paths, so only a Boolean flag is required,
//! which has to be appropriately initialized upon entering the relevant
//! variable scope."
//!
//! A [`FlagSpec`] is one atomic condition rooted at a process-stream scope
//! variable: `$r/π RelOp const` or `exists $r/π`. Its runtime
//! [`FlagMatcher`] observes every event inside the scope's subtree, tracks
//! how far the fixed path is matched along the open-element chain, and —
//! when a node at the full path closes — folds its string value into the
//! flag with XQuery's existential OR. Safety (Definition 3.6) guarantees a
//! flag is only read once its dependency is past, i.e. once its value is
//! final.

use flux_query::{Atom, CmpRhs, PathRef, RelOp};
use flux_xml::{NameId, Symbols};

/// A compiled flag: one flag-evaluable atomic condition of one scope.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagSpec {
    /// Path steps relative to the scope variable.
    pub path: Vec<String>,
    /// The steps interned ([`FlagSpec::intern`], at query-prepare time):
    /// the runtime matcher compares each start event's id against one
    /// entry — no per-event string comparison.
    pub path_ids: Vec<NameId>,
    /// What to do with matched nodes.
    pub kind: FlagKind,
}

/// Flag flavours.
#[derive(Debug, Clone, PartialEq)]
pub enum FlagKind {
    /// `exists $r/π`.
    Exists,
    /// `$r/π RelOp constant`.
    Cmp {
        /// Comparison operator.
        op: RelOp,
        /// Constant right-hand side.
        rhs: String,
    },
}

impl FlagSpec {
    /// Build the spec for an atom rooted at a scope variable, if the atom is
    /// flag-evaluable (constant comparison or existence check).
    pub fn from_atom(atom: &Atom) -> Option<(/*var*/ &str, FlagSpec)> {
        match atom {
            Atom::Exists(PathRef { var, path }) => Some((
                var,
                FlagSpec {
                    path: path.steps().to_vec(),
                    path_ids: Vec::new(),
                    kind: FlagKind::Exists,
                },
            )),
            Atom::Cmp { left, op, right: CmpRhs::Const(rhs) } => Some((
                &left.var,
                FlagSpec {
                    path: left.path.steps().to_vec(),
                    path_ids: Vec::new(),
                    kind: FlagKind::Cmp { op: *op, rhs: rhs.clone() },
                },
            )),
            Atom::Cmp { .. } => None,
        }
    }

    /// Intern the path steps (compile time); must run before the spec's
    /// matchers observe events.
    pub fn intern(&mut self, symbols: &mut Symbols) {
        self.path_ids = self.path.iter().map(|s| symbols.intern(s)).collect();
    }

    /// Does this spec evaluate the given atom?
    pub fn matches_atom(&self, atom: &Atom) -> bool {
        match (atom, &self.kind) {
            (Atom::Exists(p), FlagKind::Exists) => p.path.steps() == &self.path[..],
            (Atom::Cmp { left, op, right: CmpRhs::Const(c) }, FlagKind::Cmp { op: o, rhs }) => {
                left.path.steps() == &self.path[..] && op == o && c == rhs
            }
            _ => false,
        }
    }
}

/// Runtime state of one flag within one scope instance.
#[derive(Debug, Clone)]
pub struct FlagMatcher {
    path_len: usize,
    /// Leading path steps matched along the current open chain.
    match_depth: usize,
    /// Open elements below the scope node.
    open_depth: usize,
    /// Depth at which a fully matched node opened (collecting its value).
    collect_depth: Option<usize>,
    text: String,
    /// The existential result so far.
    pub value: bool,
}

impl FlagMatcher {
    /// Fresh matcher (at scope entry).
    pub fn new() -> FlagMatcher {
        FlagMatcher {
            path_len: 0,
            match_depth: 0,
            open_depth: 0,
            collect_depth: None,
            text: String::new(),
            value: false,
        }
    }

    /// Back to the scope-entry state, keeping the text buffer's capacity —
    /// pooled matchers make scope entry allocation-free.
    pub fn reset(&mut self) {
        self.path_len = 0;
        self.match_depth = 0;
        self.open_depth = 0;
        self.collect_depth = None;
        self.text.clear();
        self.value = false;
    }

    /// Could this flag's value still change within the subtree of the most
    /// recently opened element? True while a matched node's value is being
    /// collected, or while the open chain is a proper prefix of the path
    /// (deeper steps may still match). The executor uses this to defer
    /// condition evaluation until the current child has been consumed.
    pub fn may_change_below(&self, spec: &FlagSpec) -> bool {
        self.collect_depth.is_some()
            || (self.open_depth > 0
                && self.match_depth == self.open_depth
                && self.match_depth < spec.path.len())
    }

    /// Move the open-element count from `from` to `to` levels below the
    /// current element without observing the events in between — what a
    /// run of balanced events the matcher cannot react to (see
    /// [`FlagMatcher::may_change_below`]) would have done to it.
    pub(crate) fn shift_open(&mut self, from: u32, to: u32) {
        self.open_depth = (self.open_depth + to as usize).saturating_sub(from as usize);
    }

    /// Start-element event inside the scope. The step comparison is by
    /// interned id: out-of-vocabulary events (UNKNOWN) can never match an
    /// interned step, so they are skipped exactly as a name mismatch.
    pub fn on_start(&mut self, spec: &FlagSpec, id: flux_xml::NameId) {
        debug_assert_eq!(spec.path_ids.len(), spec.path.len(), "FlagSpec::intern not called");
        self.path_len = spec.path.len();
        self.open_depth += 1;
        if self.collect_depth.is_some() {
            return; // nested inside a matched node; text keeps accumulating
        }
        if self.open_depth == self.match_depth + 1
            && self.match_depth < spec.path_ids.len()
            && spec.path_ids[self.match_depth] == id
        {
            self.match_depth += 1;
            if self.match_depth == spec.path.len() {
                match &spec.kind {
                    FlagKind::Exists => self.value = true,
                    FlagKind::Cmp { .. } => {
                        self.collect_depth = Some(self.open_depth);
                        self.text.clear();
                    }
                }
            }
        }
    }

    /// Character-data event inside the scope.
    pub fn on_text(&mut self, text: &str) {
        if self.collect_depth.is_some() {
            self.text.push_str(text);
        }
    }

    /// Serialize the matcher state for a session snapshot. `path_len` is
    /// not saved — it is a cached copy of the spec's path length, refreshed
    /// on every start event.
    pub(crate) fn state_save(&self, enc: &mut flux_state::Enc) {
        enc.put_usize(self.match_depth);
        enc.put_usize(self.open_depth);
        if enc.put_opt(self.collect_depth.is_some()) {
            enc.put_usize(self.collect_depth.unwrap_or(0));
        }
        enc.put_str(&self.text);
        enc.put_bool(self.value);
    }

    /// Rebuild a matcher saved by [`FlagMatcher::state_save`].
    pub(crate) fn state_load(
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<FlagMatcher, flux_state::StateError> {
        let match_depth = dec.get_usize()?;
        let open_depth = dec.get_usize()?;
        let collect_depth = if dec.get_opt()? { Some(dec.get_usize()?) } else { None };
        Ok(FlagMatcher {
            path_len: 0,
            match_depth,
            open_depth,
            collect_depth,
            text: dec.get_str()?.to_string(),
            value: dec.get_bool()?,
        })
    }

    /// End-element event inside the scope.
    pub fn on_end(&mut self, spec: &FlagSpec) {
        if self.open_depth == 0 {
            return; // the scope node's own end tag
        }
        if self.collect_depth == Some(self.open_depth) {
            if let FlagKind::Cmp { op, rhs } = &spec.kind {
                self.value |= flux_query::eval::compare_values(self.text.trim(), *op, rhs);
            }
            self.collect_depth = None;
            self.match_depth -= 1;
        } else if self.collect_depth.is_none()
            && self.match_depth > 0
            && self.open_depth == self.match_depth
        {
            self.match_depth -= 1;
        }
        self.open_depth -= 1;
    }
}

impl Default for FlagMatcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_query::parse_condition;
    use flux_xml::{Reader, ReaderOptions, ResolvedEvent};
    use std::sync::Arc;

    fn run_flag(spec: &FlagSpec, scope_content: &str) -> bool {
        // Feed the children events of a synthetic scope, resolved against
        // the spec's own vocabulary (as the engine does).
        let mut symbols = Symbols::new();
        let mut spec = spec.clone();
        spec.intern(&mut symbols);
        let xml = format!("<scope>{scope_content}</scope>");
        let mut r =
            Reader::with_symbols(xml.as_bytes(), ReaderOptions::default(), Arc::new(symbols));
        let mut m = FlagMatcher::new();
        let mut depth = 0;
        while let Some(ev) = r.next_resolved().unwrap() {
            match ev {
                ResolvedEvent::Start(id, _) => {
                    depth += 1;
                    if depth > 1 {
                        m.on_start(&spec, id);
                    }
                }
                ResolvedEvent::Text(t) => {
                    if depth > 1 {
                        m.on_text(t);
                    }
                }
                ResolvedEvent::End(..) => {
                    if depth > 1 {
                        m.on_end(&spec);
                    }
                    depth -= 1;
                }
            }
        }
        m.value
    }

    fn spec(cond: &str) -> FlagSpec {
        let c = parse_condition(cond).unwrap();
        let mut found = None;
        crate::bufplan::visit_atoms(&c, &mut |a| {
            if found.is_none() {
                found = FlagSpec::from_atom(a).map(|(_, s)| s);
            }
        });
        found.expect("flag-evaluable atom")
    }

    #[test]
    fn single_step_comparison() {
        let s = spec("$b/publisher = \"AW\"");
        assert!(run_flag(&s, "<title>T</title><publisher>AW</publisher>"));
        assert!(!run_flag(&s, "<publisher>MK</publisher>"));
        // Existential: any publisher matching suffices.
        assert!(run_flag(&s, "<publisher>MK</publisher><publisher>AW</publisher>"));
    }

    #[test]
    fn numeric_comparison() {
        let s = spec("$b/year > 1991");
        assert!(run_flag(&s, "<year>1994</year>"));
        assert!(!run_flag(&s, "<year>1990</year>"));
        assert!(run_flag(&s, "<year>1990</year><year>2001</year>"));
    }

    #[test]
    fn multi_step_paths() {
        let s = spec("$p/profile/income = 100");
        assert!(run_flag(&s, "<profile><age>5</age><income>100</income></profile>"));
        assert!(!run_flag(&s, "<income>100</income>"), "step must be under profile");
        assert!(!run_flag(&s, "<other><income>100</income></other>"));
        // Deeper nesting with the same names at wrong depths:
        assert!(!run_flag(&s, "<profile><box><income>100</income></box></profile>"));
    }

    #[test]
    fn value_is_subtree_text() {
        let s = spec("$p/name = \"AB\"");
        assert!(run_flag(&s, "<name>A<em>B</em></name>"));
    }

    #[test]
    fn exists_flag() {
        let s = spec("exists $p/income");
        assert!(run_flag(&s, "<income/>"));
        assert!(!run_flag(&s, "<outgo/>"));
        let s2 = spec("exists $p/profile/income");
        assert!(run_flag(&s2, "<profile><income>1</income></profile>"));
        assert!(!run_flag(&s2, "<profile><age>1</age></profile>"));
    }

    #[test]
    fn from_atom_rejects_joins() {
        let c = parse_condition("$a/x = $b/y").unwrap();
        let mut any = false;
        crate::bufplan::visit_atoms(&c, &mut |a| {
            any |= FlagSpec::from_atom(a).is_some();
        });
        assert!(!any, "join atoms are buffer-evaluated, not flags");
    }

    #[test]
    fn matches_atom_identity() {
        let s = spec("$b/year > 1991");
        let c = parse_condition("$b/year > 1991").unwrap();
        let c2 = parse_condition("$b/year > 1992").unwrap();
        crate::bufplan::visit_atoms(&c, &mut |a| assert!(s.matches_atom(a)));
        crate::bufplan::visit_atoms(&c2, &mut |a| assert!(!s.matches_atom(a)));
    }
}
