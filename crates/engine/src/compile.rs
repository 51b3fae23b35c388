//! Compilation of safe FluX queries into executable plans.
//!
//! Compilation resolves everything that can be resolved statically:
//!
//! * one scope spec per `process-stream` expression, with its DTD
//!   production and a [`PastTable`] per `on-first` handler (Appendix B:
//!   punctuation costs one DFA transition + one table lookup per token);
//! * the pruned [`BufferTree`] of every scope variable (Section 5, Π);
//! * [`FlagSpec`] registrations for on-the-fly condition evaluation;
//! * a streamable fast-path plan for *simple* `on`-handler bodies, so
//!   fully-streaming queries copy subtrees without touching a buffer;
//! * a per-scope *rest-dead* table over the production's DFA states (see
//!   `ScopeSpec::rest_dead`): where the DTD's `past` relation proves that
//!   nothing the schedule does can react to any child still allowed, so a
//!   driver may stop feeding the scope's remaining children.

use std::fmt;
use std::sync::Arc;

use flux_core::{check_safety, production_of, FluxExpr, Handler, PastSpec, DOC_ELEM};
use flux_dtd::{Dtd, PastTable, Production};
use flux_query::eval::EvalError;
use flux_query::{Atom, CmpRhs, Cond, Expr, PathRef, ROOT_VAR};
use flux_xml::{NameId, ReaderOptions, Symbols, XmlError};

use crate::bufplan::{visit_atoms, BufferTree, Mark, RtTree};
use crate::flags::FlagSpec;

/// Errors raised while compiling or running a query.
#[derive(Debug)]
pub enum EngineError {
    /// XML parse failure on the input stream.
    Xml(XmlError),
    /// Document violates the DTD at a processed scope.
    Validation {
        /// Element whose content model was violated.
        element: String,
        /// Description.
        message: String,
    },
    /// The query is not safe (Definition 3.6) — the engine refuses it.
    Unsafe(String),
    /// A scope ranges over an element with no DTD production.
    Undeclared(String),
    /// XQuery− evaluation failure.
    Eval(EvalError),
    /// A FluX form the streaming engine does not support.
    Unsupported(String),
    /// Runtime buffers exceeded the configured limit
    /// ([`EngineOptions::max_buffer_bytes`]).
    BufferLimit {
        /// Bytes the run was about to hold.
        used: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The shared buffer budget ([`crate::BudgetHook`]) denied a charge:
    /// the aggregate pool is exhausted and a single event needed more than
    /// the remaining headroom. The hard backstop behind the admission
    /// layer's backpressure — see [`crate::budget`].
    BudgetDenied {
        /// Bytes the run asked to retain.
        requested: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Xml(e) => write!(f, "{e}"),
            EngineError::Validation { element, message } => {
                write!(f, "validation error in <{element}>: {message}")
            }
            EngineError::Unsafe(m) => write!(f, "query is not safe: {m}"),
            EngineError::Undeclared(e) => write!(f, "element `{e}` is not declared in the DTD"),
            EngineError::Eval(e) => write!(f, "{e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported FluX form: {m}"),
            EngineError::BufferLimit { used, limit } => {
                write!(f, "runtime buffers reached {used} bytes, over the {limit}-byte limit")
            }
            EngineError::BudgetDenied { requested } => {
                write!(f, "shared buffer budget denied a {requested}-byte charge")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<XmlError> for EngineError {
    fn from(e: XmlError) -> Self {
        EngineError::Xml(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

/// Static configuration a query is compiled with. Cheap to copy; one
/// compiled plan serves any number of concurrent runs with these settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// How input streams are tokenized (attribute handling, whitespace).
    pub reader: ReaderOptions,
    /// Abort a run whose live buffers exceed this many bytes (`None` =
    /// unlimited). A back-pressure guard for long-lived services: a query
    /// the scheduler could not fully stream cannot hold arbitrary amounts
    /// of one client's data in memory.
    pub max_buffer_bytes: Option<usize>,
}

/// A compiled, executable query plan.
///
/// Owns everything it needs (the DTD travels along in an [`Arc`]), so a
/// plan is `Send + Sync + 'static`: compile once, then run it from any
/// number of threads or sessions concurrently.
///
/// Compilation also fixes the plan's *symbol table*: the DTD's interned
/// vocabulary extended with every element name the query mentions (handler
/// labels, flag paths, buffer-tree steps). Each run's reader resolves tag
/// names against this table once at tokenization, and the whole event loop
/// — automaton steps, handler dispatch, flags, recorders — runs on
/// [`NameId`] comparisons; see [`flux_xml::symbols`] for the architecture.
pub struct CompiledQuery {
    dtd: Arc<Dtd>,
    pub(crate) symbols: Arc<Symbols>,
    pub(crate) opts: EngineOptions,
    pub(crate) top: Top,
    pub(crate) scopes: Vec<ScopeSpec>,
}

/// Position-based handle to a production, valid for the plan's own DTD —
/// what makes the plan free of borrows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProdRef {
    /// The document pseudo-production (`$ROOT`'s scope).
    Doc,
    /// `Dtd::production_at(idx)`.
    Idx(usize),
}

impl ProdRef {
    pub(crate) fn resolve(self, dtd: &Dtd) -> &Production {
        match self {
            ProdRef::Doc => dtd.doc_production(),
            ProdRef::Idx(i) => dtd.production_at(i),
        }
    }
}

pub(crate) enum Top {
    /// Degenerate: a query with no `process-stream` at all; the engine
    /// materializes the document and evaluates directly.
    Simple(Expr),
    /// The usual case.
    Scope { pre: Option<String>, idx: usize, post: Option<String> },
}

pub(crate) struct ScopeSpec {
    pub var: String,
    pub elem: String,
    pub prod: Option<ProdRef>,
    pub pre: Option<String>,
    pub post: Option<String>,
    pub handlers: Vec<CHandler>,
    /// Planning form of the buffer tree (diagnostics, `buffer_plan`).
    pub buffer_tree: BufferTree,
    /// Runtime form: NameId-keyed, compiled once after planning.
    pub buffer_rt: RtTree,
    pub flags: Vec<FlagSpec>,
    pub allows_text: bool,
    /// `rest_dead[q]`: once the scope's validating DFA sits in state `q`
    /// between two children, the rest of the scope is dead — no handler,
    /// condition flag or buffer path of this scope can react to any child
    /// the content model still allows, so the remaining children only need
    /// validating. Derived from the Appendix B relation `past(q, a)` (the
    /// table a [`PastTable`] is built from): every `on a` label has
    /// `past(q, a)`, every non-deferred `on-first past(S)` table already
    /// holds at `q` (tables only ever turn true along transitions, so it has
    /// fired), the first step of every own flag path is past, and the own
    /// buffer tree has an unmarked root whose first-level steps are all
    /// past. Empty when no state qualifies (always so for the document
    /// scope), so the runtime check is one bounds test.
    pub rest_dead: Vec<bool>,
}

impl ScopeSpec {
    pub(crate) fn needs_observer(&self) -> bool {
        !self.buffer_tree.is_empty() || !self.flags.is_empty()
    }
}

pub(crate) enum CHandler {
    OnFirst {
        table: Option<PastTable>,
        expr: Expr,
        /// Fire only at scope end (i = n+1): the expression outputs the
        /// scope variable's own subtree and the scope may contain character
        /// data, which `past(S)` reasoning over element labels cannot see.
        /// (Example 4.4: "on-first past(*) delays the execution until the
        /// complete title node has been seen".)
        defer_to_end: bool,
    },
    On {
        /// The child label, interned: dispatch is one integer compare per
        /// (event, handler). A validated child's id is never UNKNOWN, so a
        /// label can only fire on its own name.
        label_id: NameId,
        var: String,
        body: CBody,
    },
}

pub(crate) enum CBody {
    /// A nested process-stream scope.
    Scope(usize),
    /// A streamable simple body: strings, conditional strings, and at most
    /// one copy of the matched child — the zero-buffer path.
    Stream(SimplePlan),
    /// General XQuery− body: the child is captured and evaluated.
    Captured(Expr),
}

pub(crate) struct SimplePlan {
    pub items: Vec<SimpleItem>,
}

pub(crate) enum SimpleItem {
    Raw(String),
    CondRaw(Cond, String),
    CopyChild,
    CondCopyChild(Cond),
}

impl CompiledQuery {
    /// Compile a safe FluX query against the DTD with default options.
    ///
    /// Convenience for one-off use; it clones the DTD into the plan. Long
    /// running services that prepare many queries against one schema should
    /// share it via [`CompiledQuery::compile_with`].
    pub fn compile(q: &FluxExpr, dtd: &Dtd) -> Result<CompiledQuery, EngineError> {
        Self::compile_with(q, Arc::new(dtd.clone()), EngineOptions::default())
    }

    /// Compile a safe FluX query against a shared DTD, with options.
    pub fn compile_with(
        q: &FluxExpr,
        dtd: Arc<Dtd>,
        opts: EngineOptions,
    ) -> Result<CompiledQuery, EngineError> {
        // Extend the schema's interned vocabulary with the query's names.
        // DTD ids are preserved, so the productions' dense transition
        // tables remain valid; query-only names get fresh ids that no
        // production can step on (they read as "no transition").
        let symbols = (**dtd.symbols()).clone();
        Self::compile_with_symbols(q, dtd, opts, symbols)
    }

    /// [`CompiledQuery::compile_with`], seeding the plan's symbol table with
    /// an explicit starting vocabulary instead of the DTD's own.
    ///
    /// The seed must extend the DTD's table — every name the DTD interned
    /// must resolve to the *same* [`NameId`] in the seed — because the
    /// productions' dense transition tables are indexed by those ids. This
    /// is the fan-out seam ([`crate::fanout`]): many queries compiled
    /// against one *union* symbol table produce plans whose ids agree, so a
    /// single tokenization pass can drive all of them.
    pub fn compile_with_symbols(
        q: &FluxExpr,
        dtd: Arc<Dtd>,
        opts: EngineOptions,
        symbols: Symbols,
    ) -> Result<CompiledQuery, EngineError> {
        for (id, name) in dtd.symbols().iter() {
            if symbols.resolve(name) != id {
                return Err(EngineError::Unsupported(format!(
                    "seed symbol table does not extend the DTD's (`{name}` moved)"
                )));
            }
        }
        check_safety(q, &dtd).map_err(|v| EngineError::Unsafe(v.to_string()))?;
        let mut c = Compiler { dtd: &dtd, symbols, scopes: Vec::new(), pending: Vec::new() };
        let top = match q {
            FluxExpr::Simple(e) => {
                let fv = flux_query::free_vars(e);
                if fv.iter().any(|v| v != ROOT_VAR) {
                    return Err(EngineError::Unsupported(format!(
                        "top-level simple expression with free variables {fv:?}"
                    )));
                }
                Top::Simple(e.clone())
            }
            FluxExpr::PS { pre, var, handlers, post } => {
                let mut chain = Vec::new();
                let idx =
                    c.compile_scope(var, flux_core::DOC_ELEM, None, None, handlers, &mut chain)?;
                Top::Scope { pre: pre.clone(), idx, post: post.clone() }
            }
        };
        c.finish_buffer_plans();
        let scopes = std::mem::take(&mut c.scopes);
        let symbols = Arc::new(std::mem::take(&mut c.symbols));
        drop(c);
        Ok(CompiledQuery { dtd, symbols, opts, top, scopes })
    }

    /// The DTD the plan was compiled against.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The plan's symbol table: the DTD vocabulary plus every element name
    /// the query mentions. Runs resolve input tag names against it once at
    /// tokenization.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// A shared handle to the plan's DTD.
    pub fn dtd_arc(&self) -> Arc<Dtd> {
        Arc::clone(&self.dtd)
    }

    /// The options the plan was compiled with.
    pub fn options(&self) -> EngineOptions {
        self.opts
    }

    /// Total buffer-tree nodes across scopes (diagnostics/benches).
    pub fn buffer_tree_nodes(&self) -> usize {
        self.scopes
            .iter()
            .filter(|s| !s.buffer_tree.is_empty())
            .map(|s| s.buffer_tree.node_count())
            .sum()
    }

    /// A deterministic digest of the plan's *state identity*: everything a
    /// session snapshot's indices refer to — the interned symbol table (so
    /// every saved `NameId` resolves to the same name), the scope list and
    /// each scope's handler/flag arity (so saved scope/handler indices
    /// address the same specs), the event-shaping reader options, and the
    /// buffer limit. Restoring a snapshot against a plan with a different
    /// fingerprint is refused. Deliberately excluded: the scanner backend
    /// choice — snapshots migrate freely between AVX2, SSE2 and SWAR hosts —
    /// and the delivery mode, for the same reason: tape and per-event
    /// sessions produce byte-identical snapshots and restore interchangeably.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = flux_state::Fnv64::new();
        h.write_u64(self.symbols.fingerprint());
        h.write_u64(self.scopes.len() as u64);
        for s in &self.scopes {
            h.write(s.var.as_bytes());
            h.write(&[0xff]);
            h.write(s.elem.as_bytes());
            h.write(&[0xff]);
            h.write_u64(s.handlers.len() as u64);
            h.write_u64(s.flags.len() as u64);
            h.write_u64(s.buffer_tree.node_count() as u64);
        }
        h.write(&[
            match self.opts.reader.attributes {
                flux_xml::AttributeMode::Reject => 0,
                flux_xml::AttributeMode::Drop => 1,
                flux_xml::AttributeMode::ConvertToSubelements => 2,
            },
            u8::from(self.opts.reader.keep_whitespace),
            u8::from(matches!(self.top, Top::Scope { .. })),
        ]);
        h.write_u64(self.opts.max_buffer_bytes.map_or(0, |n| n as u64 + 1));
        h.finish()
    }

    /// Scope variables that have a non-empty buffer tree, with a rendering
    /// (diagnostics/examples).
    pub fn buffer_plan(&self) -> Vec<(String, String)> {
        self.scopes
            .iter()
            .filter(|s| !s.buffer_tree.is_empty())
            .map(|s| (s.var.clone(), s.buffer_tree.render()))
            .collect()
    }
}

struct Compiler<'d> {
    dtd: &'d Dtd,
    /// The plan's symbol table under construction (DTD vocabulary + query
    /// names).
    symbols: Symbols,
    scopes: Vec<ScopeSpec>,
    /// XQuery− expressions to analyse for buffering/flags, with the scope
    /// chain (var, scope index) they appear under.
    pending: Vec<(Expr, Vec<(String, usize)>)>,
}

impl<'d> Compiler<'d> {
    fn compile_scope(
        &mut self,
        var: &str,
        elem: &str,
        pre: Option<&String>,
        post: Option<&String>,
        handlers: &[Handler],
        chain: &mut Vec<(String, usize)>,
    ) -> Result<usize, EngineError> {
        let prod = production_of(self.dtd, elem);
        let prod_ref = if elem == DOC_ELEM {
            Some(ProdRef::Doc)
        } else {
            self.dtd.production_index(elem).map(ProdRef::Idx)
        };
        let idx = self.scopes.len();
        self.symbols.intern(elem);
        self.scopes.push(ScopeSpec {
            var: var.to_string(),
            elem: elem.to_string(),
            prod: prod_ref,
            pre: pre.cloned(),
            post: post.cloned(),
            handlers: Vec::new(),
            buffer_tree: BufferTree::default(),
            buffer_rt: RtTree::default(),
            flags: Vec::new(),
            allows_text: prod.is_some_and(|p| p.allows_text()),
            rest_dead: Vec::new(),
        });
        chain.push((var.to_string(), idx));

        let mut compiled = Vec::with_capacity(handlers.len());
        for h in handlers {
            match h {
                Handler::OnFirst { past, expr } => {
                    // Section 7: push the normalization-split conditionals
                    // back up so buffered evaluation tests each condition
                    // once instead of once per output item.
                    let expr = flux_core::opt::hoist::hoist_ifs(expr);
                    let table = prod.map(|p| {
                        let set: Vec<String> = past.resolve(p).into_iter().collect();
                        PastTable::build(p.automaton(), p.constraints(), &set)
                    });
                    if table.is_none() && matches!(past, PastSpec::All) {
                        // past(*) without a production cannot be resolved;
                        // the scope cannot run anyway (Undeclared at runtime).
                    }
                    self.pending.push((expr.clone(), chain.clone()));
                    let defer_to_end =
                        self.scopes[idx].allows_text && reads_var_subtree(&expr, var);
                    compiled.push(CHandler::OnFirst { table, expr, defer_to_end });
                }
                Handler::On { label, var: x, body } => {
                    let cbody = match &**body {
                        FluxExpr::PS { pre, var: psvar, handlers, post } => {
                            if psvar != x {
                                return Err(EngineError::Unsupported(format!(
                                    "on {label} as ${x} whose process-stream ranges over ${psvar}"
                                )));
                            }
                            let i = self.compile_scope(
                                psvar,
                                label,
                                pre.as_ref(),
                                post.as_ref(),
                                handlers,
                                chain,
                            )?;
                            CBody::Scope(i)
                        }
                        FluxExpr::Simple(e) => {
                            self.pending.push((e.clone(), chain.clone()));
                            match compile_simple_stream(e, x) {
                                Some(plan) => CBody::Stream(plan),
                                None => CBody::Captured(flux_core::opt::hoist::hoist_ifs(e)),
                            }
                        }
                    };
                    compiled.push(CHandler::On {
                        label_id: self.symbols.intern(label),
                        var: x.clone(),
                        body: cbody,
                    });
                }
            }
        }
        chain.pop();
        self.scopes[idx].handlers = compiled;
        Ok(idx)
    }

    /// After the scope tree is built: compute buffer trees and flags from
    /// the collected XQuery− expressions.
    fn finish_buffer_plans(&mut self) {
        for (expr, chain) in std::mem::take(&mut self.pending) {
            let chain_vars: Vec<&str> = chain.iter().map(|(v, _)| v.as_str()).collect();
            for (var, sidx) in &chain {
                for (path, mark) in crate::bufplan::pi(var, &expr, true) {
                    self.scopes[*sidx].buffer_tree.insert(&path, mark == Mark::Marked);
                }
            }
            // Flags: constant/exists atoms rooted at a chain variable.
            let scopes = &mut self.scopes;
            let symbols = &mut self.symbols;
            visit_all_conds(&expr, &mut |cond, bound| {
                visit_atoms(cond, &mut |atom| {
                    if let Some((avar, mut spec)) = FlagSpec::from_atom(atom) {
                        if bound.iter().any(|b| b == avar) {
                            return; // rebound inside the expression
                        }
                        if let Some((_, sidx)) = chain.iter().find(|(v, _)| v == avar) {
                            spec.intern(symbols);
                            let flags = &mut scopes[*sidx].flags;
                            if !flags.contains(&spec) {
                                flags.push(spec);
                            }
                        }
                    }
                });
            });
            let _ = chain_vars;
        }
        for s in &mut self.scopes {
            s.buffer_tree.prune();
            s.buffer_rt = s.buffer_tree.compile(&mut self.symbols);
            s.rest_dead = rest_dead_table(s, self.dtd, &self.symbols);
        }
    }
}

/// The [`ScopeSpec::rest_dead`] table of one compiled scope.
fn rest_dead_table(s: &ScopeSpec, dtd: &Dtd, symbols: &Symbols) -> Vec<bool> {
    // The document scope ends at end of input, not at an end tag a driver
    // could wake on; a marked root records every child.
    let Some(ProdRef::Idx(i)) = s.prod else { return Vec::new() };
    if s.buffer_tree.marked {
        return Vec::new();
    }
    let p = dtd.production_at(i);
    let (g, c) = (p.automaton(), p.constraints());
    // Child labels that must no longer occur. Names outside symb(ρ) can
    // never occur and need no entry.
    let mut labels: Vec<u32> = Vec::new();
    let mut tables: Vec<&PastTable> = Vec::new();
    for h in &s.handlers {
        match h {
            CHandler::On { label_id, .. } => labels.extend(g.symbol_id(symbols.name(*label_id))),
            CHandler::OnFirst { defer_to_end: true, .. } => {}
            CHandler::OnFirst { table: Some(t), .. } => tables.push(t),
            CHandler::OnFirst { table: None, .. } => return Vec::new(),
        }
    }
    for f in &s.flags {
        labels.extend(f.path.first().and_then(|step| g.symbol_id(step)));
    }
    for step in s.buffer_tree.children.keys() {
        labels.extend(g.symbol_id(step));
    }
    let table: Vec<bool> = (0..g.n_states() as u32)
        .map(|q| labels.iter().all(|&a| c.past(q, a)) && tables.iter().all(|t| t.holds(q)))
        .collect();
    if table.contains(&true) {
        table
    } else {
        Vec::new()
    }
}

/// Does the expression output `$var`'s own subtree (free `{$var}` or
/// `{$var/π}`)? Such reads include the scope's character data, which element
/// punctuation cannot cover.
fn reads_var_subtree(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Empty | Expr::Str(_) => false,
        Expr::OutputVar { var: v } | Expr::OutputPath { var: v, .. } => v == var,
        Expr::Seq(items) => items.iter().any(|i| reads_var_subtree(i, var)),
        Expr::If { body, .. } => reads_var_subtree(body, var),
        Expr::For { var: bound, body, .. } => bound != var && reads_var_subtree(body, var),
    }
}

/// Visit every condition in an expression together with the variables bound
/// around it.
fn visit_all_conds<'e, F: FnMut(&'e Cond, &[String])>(e: &'e Expr, f: &mut F) {
    fn go<'e, F: FnMut(&'e Cond, &[String])>(e: &'e Expr, bound: &mut Vec<String>, f: &mut F) {
        match e {
            Expr::Empty | Expr::Str(_) | Expr::OutputVar { .. } | Expr::OutputPath { .. } => {}
            Expr::Seq(items) => items.iter().for_each(|i| go(i, bound, f)),
            Expr::If { cond, body } => {
                f(cond, bound);
                go(body, bound, f);
            }
            Expr::For { var, pred, body, .. } => {
                bound.push(var.clone());
                if let Some(c) = pred {
                    f(c, bound);
                }
                go(body, bound, f);
                bound.pop();
            }
        }
    }
    go(e, &mut Vec::new(), f)
}

/// Try to compile a simple `on`-handler body into the streaming fast path.
fn compile_simple_stream(e: &Expr, child_var: &str) -> Option<SimplePlan> {
    if !e.is_simple() {
        return None;
    }
    let items: &[Expr] = match e {
        Expr::Seq(items) => items,
        single => std::slice::from_ref(single),
    };
    let mut plan = Vec::with_capacity(items.len());
    let mut copies = 0;
    for item in items {
        match item {
            Expr::Empty => {}
            Expr::Str(s) => plan.push(SimpleItem::Raw(s.clone())),
            Expr::OutputVar { var } if var == child_var => {
                plan.push(SimpleItem::CopyChild);
                copies += 1;
            }
            Expr::If { cond, body } => {
                if cond.mentions(child_var) {
                    return None; // conditions on the streamed child need capture
                }
                match &**body {
                    Expr::Str(s) => plan.push(SimpleItem::CondRaw(cond.clone(), s.clone())),
                    Expr::OutputVar { var } if var == child_var => {
                        plan.push(SimpleItem::CondCopyChild(cond.clone()));
                        copies += 1;
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    (copies <= 1).then_some(SimplePlan { items: plan })
}

/// Is this atom rooted at the given variable (for flag ownership tests)?
pub(crate) fn atom_root_var(atom: &Atom) -> &str {
    match atom {
        Atom::Exists(PathRef { var, .. }) => var,
        Atom::Cmp { left, .. } => &left.var,
    }
}

/// Is the atom a join (path-to-path) comparison?
pub(crate) fn atom_is_join(atom: &Atom) -> bool {
    matches!(atom, Atom::Cmp { right: CmpRhs::Path(_) | CmpRhs::Scaled { .. }, .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_core::rewrite_query;
    use flux_query::parse_xquery;

    const BIB_STRONG: &str = "<!ELEMENT bib (book)*>\
        <!ELEMENT book (title,(author+|editor+),publisher,price)>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)><!ELEMENT editor (#PCDATA)>\
        <!ELEMENT publisher (#PCDATA)><!ELEMENT price (#PCDATA)>";
    const BIB_WEAK: &str = "<!ELEMENT bib (book)*><!ELEMENT book (title|author)*>\
        <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>";

    fn compile_str(q: &str, dtd: &Dtd) -> CompiledQuery {
        let e = parse_xquery(q).unwrap();
        let flux = rewrite_query(&e, dtd).unwrap();
        CompiledQuery::compile(&flux, dtd).unwrap()
    }

    #[test]
    fn streaming_query_has_no_buffers() {
        let dtd = Dtd::parse(BIB_STRONG).unwrap();
        let c = compile_str(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            &dtd,
        );
        assert_eq!(c.buffer_tree_nodes(), 0, "plan: {:?}", c.buffer_plan());
        // All on-handler bodies are streamable.
        for s in &c.scopes {
            for h in &s.handlers {
                if let CHandler::On { body, .. } = h {
                    assert!(matches!(body, CBody::Stream(_) | CBody::Scope(_)));
                }
            }
        }
    }

    #[test]
    fn weak_dtd_buffers_authors() {
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let c = compile_str(
            "<results>{ for $b in $ROOT/bib/book return <result> {$b/title} {$b/author} </result> }</results>",
            &dtd,
        );
        let plan = c.buffer_plan();
        assert_eq!(plan.len(), 1, "{plan:?}");
        assert_eq!(plan[0].0, "b");
        assert_eq!(plan[0].1, "{author•}");
    }

    #[test]
    fn flags_registered_for_constant_conditions() {
        let dtd = Dtd::parse(
            "<!ELEMENT bib (book)*><!ELEMENT book (publisher,year,title)>\
             <!ELEMENT publisher (#PCDATA)><!ELEMENT year (#PCDATA)><!ELEMENT title (#PCDATA)>",
        )
        .unwrap();
        let c = compile_str(
            "{ for $b in $ROOT/bib/book where $b/publisher = \"AW\" and $b/year > 1991 \
               return <hit> {$b/title} </hit> }",
            &dtd,
        );
        let book_scope = c.scopes.iter().find(|s| s.elem == "book").unwrap();
        assert_eq!(book_scope.flags.len(), 2, "publisher and year flags");
        // Titles stream; the condition costs no buffering.
        assert_eq!(c.buffer_tree_nodes(), 0, "{:?}", c.buffer_plan());
    }

    #[test]
    fn unsafe_queries_rejected() {
        let dtd = Dtd::parse(BIB_WEAK).unwrap();
        let bad = flux_core::parse_flux(
            "{ ps $ROOT: on bib as $bib return { ps $bib: on book as $b return \
               { ps $b: on-first past(title) return { for $a in $b/author return {$a} } } } }",
        )
        .unwrap();
        assert!(matches!(CompiledQuery::compile(&bad, &dtd), Err(EngineError::Unsafe(_))));
    }

    #[test]
    fn simple_stream_compilation() {
        let e = parse_xquery("<a> {$t} </a>").unwrap();
        let plan = compile_simple_stream(&e, "t").unwrap();
        assert_eq!(plan.items.len(), 3);
        assert!(matches!(plan.items[1], SimpleItem::CopyChild));
        // Conditions on the child itself force capture:
        let e2 = parse_xquery("{ if $t/x = 1 then {$t} }").unwrap();
        assert!(compile_simple_stream(&e2, "t").is_none());
        // Foreign-variable conditions are fine:
        let e3 = parse_xquery("{ if $b/x = 1 then {$t} }").unwrap();
        assert!(compile_simple_stream(&e3, "t").is_some());
        // For-loops are not streamable:
        let e4 = parse_xquery("{ for $q in $t/x return {$q} }").unwrap();
        assert!(compile_simple_stream(&e4, "t").is_none());
    }
}
