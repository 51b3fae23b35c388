//! Pull-based streaming XML parser.
//!
//! [`Reader`] reads from any [`BufRead`] source and yields one
//! [`Event`] at a time without ever materializing the document — the property
//! the whole FluX approach depends on. It performs well-formedness checking
//! (matching tags, a single root element) and resolves entity references.
//!
//! # Name resolution
//!
//! A reader may carry a shared [`Symbols`] table
//! ([`Reader::with_symbols`]); [`Reader::next_resolved`] then yields
//! [`ResolvedEvent`]s whose tag names were hashed **once at tokenization**
//! into dense [`NameId`]s. Names outside the table resolve to
//! [`NameId::UNKNOWN`] but still carry their text. End tags never re-hash:
//! the id is remembered on the open-element stack, which itself is a flat
//! byte arena — the streaming path performs no per-event heap allocation.
//!
//! Attribute handling follows the paper's experimental setup (Appendix A):
//! the prototype's "XSAX parser converted attributes into subelements
//! on-the-fly". [`AttributeMode::ConvertToSubelements`] reproduces this:
//! `<person id="person0">` is reported as
//! `<person><person_id>person0</person_id>` with the synthesized element name
//! `{element}_{attribute}` (so `person`+`id` → `person_id`, `buyer`+`person`
//! → `buyer_person`, exactly the names the adapted XMark queries use).
//!
//! # Incremental delivery: one general step, one window walk
//!
//! The incremental reader ([`Reader::incremental`]) offers per-event pulls
//! ([`Reader::poll_resolved`]), batched tape fills ([`Reader::fill_tape`])
//! and the structural skip of a dead subtree ([`Reader::skip_events`]),
//! built from two shared pieces. The *general step* runs the per-event
//! machinery once under a checkpoint and rolls back when the fed bytes end
//! mid-construct; it delivers every pulled event and every construct the
//! walk does not handle. The *window walk* passes over the common shape —
//! entity-free ASCII text, attribute-free ASCII tags — straight off the
//! structural index without consuming, and commits the reader in bulk at
//! its last event boundary: a tape fill has it record each event as a
//! window span, a skip has it count them. Byte accounting, name interning,
//! rollback points and errors are therefore those of per-event delivery,
//! which `tests/tape_equivalence.rs` pins at every split offset.

use std::fmt;
use std::io::{self, BufRead};
use std::sync::Arc;

use crate::evbuf::EventBuf;
use crate::events::{Event, OwnedEvent, ResolvedEvent};
use crate::scan::{ScanTelemetry, Scanner, ScannerChoice, StructuralIndex, BLOCK};
use crate::symbols::{NameId, Symbols};
use crate::tape::{EventTape, TapeKind, TAPE_BATCH_EVENTS};
use crate::xsax::converted_name_into;

/// How the reader treats attributes in start tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttributeMode {
    /// Error out when an attribute is encountered (the paper's core data
    /// model is attribute-free).
    Reject,
    /// Parse and discard attributes.
    Drop,
    /// Convert each attribute into a subelement named
    /// `{element}_{attribute}`, placed before the element's other children
    /// (the paper's XSAX behaviour).
    #[default]
    ConvertToSubelements,
}

/// Reader configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReaderOptions {
    /// Attribute handling; defaults to XSAX-style conversion.
    pub attributes: AttributeMode,
    /// Report whitespace-only text nodes. Off by default: element-content
    /// documents (like XMark) routinely contain indentation that carries no
    /// data and would only inflate buffers.
    pub keep_whitespace: bool,
    /// Structural-scanner backend selection (see [`crate::scan`]); defaults
    /// to the best kernel the CPU supports.
    pub scanner: ScannerChoice,
}

/// Classification of parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Byte stream is not valid UTF-8.
    Utf8,
    /// Underlying I/O failure.
    Io(String),
    /// `</b>` closing `<a>`, or close with nothing open.
    MismatchedTag { expected: Option<String>, found: String },
    /// Document ended with open elements.
    UnexpectedEof,
    /// Content after the root element was closed.
    TrailingContent,
    /// Character data outside the root element.
    TextOutsideRoot,
    /// Malformed tag, bad name, bad attribute syntax, bad entity, …
    Syntax(String),
    /// An attribute was seen under [`AttributeMode::Reject`].
    AttributeRejected { element: String, attribute: String },
}

/// A parse error with the byte offset at which it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// What went wrong.
    pub kind: XmlErrorKind,
    /// Byte offset into the input stream.
    pub offset: u64,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            XmlErrorKind::Utf8 => write!(f, "invalid UTF-8 at byte {}", self.offset),
            XmlErrorKind::Io(e) => write!(f, "I/O error at byte {}: {e}", self.offset),
            XmlErrorKind::MismatchedTag { expected, found } => match expected {
                Some(e) => write!(
                    f,
                    "mismatched end tag </{found}> at byte {}, expected </{e}>",
                    self.offset
                ),
                None => {
                    write!(f, "end tag </{found}> with no open element at byte {}", self.offset)
                }
            },
            XmlErrorKind::UnexpectedEof => {
                write!(f, "unexpected end of input at byte {}", self.offset)
            }
            XmlErrorKind::TrailingContent => {
                write!(f, "content after document root at byte {}", self.offset)
            }
            XmlErrorKind::TextOutsideRoot => {
                write!(f, "character data outside the root element at byte {}", self.offset)
            }
            XmlErrorKind::Syntax(m) => write!(f, "XML syntax error at byte {}: {m}", self.offset),
            XmlErrorKind::AttributeRejected { element, attribute } => {
                write!(
                    f,
                    "attribute `{attribute}` on `<{element}>` at byte {} (attribute-free mode)",
                    self.offset
                )
            }
        }
    }
}

impl std::error::Error for XmlError {}

enum Slot {
    None,
    /// Borrow target for a text event (decoded into `text_buf`).
    Text,
    /// Text served directly from the source's buffer (zero-copy fast
    /// path): the first `len` bytes of the *unconsumed* window, verified
    /// ASCII and entity-free. `defer_consume` keeps the window in place
    /// until the next pull.
    SrcText {
        len: usize,
    },
    /// Borrow target for an end tag name (`name_buf` + `cur_id`).
    EndName,
    /// Borrow target for a start tag name (attribute-free fast path).
    StartName,
    /// Start tag served straight from the stack arena: the name is the
    /// topmost `stack` entry, which the fast path just pushed — no copy
    /// into `name_buf`.
    StackTop,
    /// End tag served straight from the stack arena: the name is the
    /// topmost `stack` entry; the pop (and arena truncate) is deferred to
    /// the next pull so the borrow needs no copy, mirroring
    /// `defer_consume`.
    StackPop,
    /// Index into the `pending` event buffer.
    Pending(usize),
}

/// Outcome of a fast-path attempt. `Fallback` guarantees no state was
/// consumed or mutated: the general path re-reads the same bytes.
enum Fast {
    /// Event produced (slot set).
    Emitted,
    /// Handled without an event (whitespace dropped, tag opened).
    Skipped,
    /// Not a fast-path shape; use the general path.
    Fallback,
}

/// Per-event name resolution with quick-table hit accounting. A free
/// function over the reader's disjoint fields so call sites may keep the
/// name borrowed from the input buffers while the counters are bumped.
#[inline]
fn resolve_counted(
    symbols: &Option<Arc<Symbols>>,
    quick_hits: &mut u64,
    quick_misses: &mut u64,
    name: &str,
) -> NameId {
    match symbols {
        Some(s) => {
            let (id, quick) = s.resolve_traced(name);
            if quick {
                *quick_hits += 1;
            } else {
                *quick_misses += 1;
            }
            id
        }
        None => NameId::UNKNOWN,
    }
}

/// Record an element opening: a self-closing tag queues its end event in
/// the pending buffer (reclaiming it first if fully drained); an open tag
/// appends its name bytes to the flat stack arena. A free function over the
/// reader's disjoint fields, so callers may keep `name` borrowed from the
/// input buffers.
fn open_element(
    pending: &mut EventBuf,
    pending_pos: &mut usize,
    stack: &mut Vec<(u32, NameId)>,
    stack_buf: &mut String,
    id: NameId,
    name: &str,
    self_closing: bool,
) {
    if self_closing {
        if *pending_pos == pending.len() {
            pending.clear();
            *pending_pos = 0;
        }
        pending.push_end(id, name);
    } else {
        let off = stack_buf.len() as u32;
        stack_buf.push_str(name);
        stack.push((off, id));
    }
}

/// Ensure the structural index covers the current parse position
/// (`offset` = stream offset of `buf[0]`), re-anchoring when the parse has
/// moved past — or, after an incremental rollback, before — the covered
/// range. Returns the index-relative position of `buf[0]`.
///
/// One anchor batch serves the next few hundred events; classification is
/// amortized to ~one pass per input byte. Free function (not a method) so
/// it can run while `buf` still borrows the source field.
#[inline]
fn ensure_index(scanner: Scanner, idx: &mut StructuralIndex, offset: u64, buf: &[u8]) -> usize {
    if let Some(d) = offset.checked_sub(idx.origin()) {
        if d < idx.covered() as u64 {
            let d = d as usize;
            // A batch ending mid-block (the anchor ran out of window) can't
            // be extended in place; if the window has since grown past it —
            // an incremental feed landed — re-anchor so `extend` always
            // continues from a block-aligned boundary.
            if idx.covered().is_multiple_of(BLOCK) || idx.covered() - d >= buf.len() {
                return d;
            }
        }
    }
    scanner.anchor(idx, offset, buf);
    0
}

/// First `<` (`gt == false`) or `>` (`gt == true`) in the window `buf` at
/// or after window-relative position `start`, classifying more of the
/// window while uncovered bytes remain. The window starts at stream offset
/// `off0`; `shift` maps window-relative positions to index positions
/// (`idx_pos = pos + shift`). Returns a window-relative position; `None`
/// means the construct crosses the window (the caller falls back to the
/// accumulating path, exactly as the raw byte-search did).
///
/// On a miss past the covered range the index is *re-anchored* at the
/// search position (updating `*shift` for the caller's later mask queries;
/// it goes negative once a walk re-anchors mid-window) rather than
/// extended in place: extension would let the index span the whole stream
/// on a one-shot source, growing mask storage with document size.
/// Re-anchoring bounds it at one anchor batch plus one construct; only the
/// partial tail beyond the old coverage is classified twice. In-place
/// extension still handles a single construct outgrowing a fresh anchor
/// (the search position at index 0).
// Always inlined: this is the per-event probe of every fast path and of
// the window walk, and as an out-of-line call it costs more than the hit.
#[inline(always)]
fn find_structural(
    scanner: Scanner,
    idx: &mut StructuralIndex,
    off0: u64,
    shift: &mut isize,
    buf: &[u8],
    start: usize,
    gt: bool,
) -> Option<usize> {
    let mut from = start.wrapping_add_signed(*shift);
    loop {
        let hit = if gt { idx.first_gt(from) } else { idx.first_lt(from) };
        if let Some(p) = hit {
            return Some(p.wrapping_add_signed(-*shift));
        }
        let covered_rel = idx.covered().wrapping_add_signed(-*shift);
        if covered_rel >= buf.len() {
            return None;
        }
        if start.wrapping_add_signed(*shift) > 0 {
            scanner.anchor(idx, off0 + start as u64, &buf[start..]);
            *shift = -(start as isize);
            from = 0;
        } else {
            // Only the new tail can hold the hit.
            from = idx.covered();
            scanner.extend(idx, &buf[covered_rel..]);
        }
    }
}

/// Streaming pull parser. See the [module documentation](self).
pub struct Reader<R> {
    src: R,
    opts: ReaderOptions,
    /// Stage-1 structural classifier, resolved once from
    /// `opts.scanner` (see [`crate::scan`]).
    scanner: Scanner,
    /// Reusable stage-1 output the fast paths parse from.
    sidx: StructuralIndex,
    /// Bytes consumed via the structural fast paths (telemetry).
    fast_bytes: u64,
    /// Bytes consumed via the accumulating general path (telemetry).
    general_bytes: u64,
    /// Name resolutions answered by the `Symbols` quick table (telemetry).
    quick_hits: u64,
    /// Name resolutions that fell through to the FNV map (telemetry).
    quick_misses: u64,
    /// Static vocabulary for [`Reader::next_resolved`]; without it every
    /// name resolves to [`NameId::UNKNOWN`].
    symbols: Option<Arc<Symbols>>,
    /// Open elements: `(offset into stack_buf, resolved id)`. The name
    /// bytes live in `stack_buf`, so opening an element allocates nothing.
    stack: Vec<(u32, NameId)>,
    stack_buf: String,
    /// Queued events (attribute conversion, self-closing end tags), arena
    /// backed — no per-event allocation.
    pending: EventBuf,
    pending_pos: usize,
    slot: Slot,
    /// Resolved id of the tag in `name_buf` (slots `StartName`/`EndName`).
    cur_id: NameId,
    text_buf: String,
    name_buf: String,
    /// Scratch for synthesized `{element}_{attribute}` names.
    synth_buf: String,
    /// Scratch spans for the attribute fast path: `(name, value)` byte
    /// ranges of the tag body, validated before anything is mutated.
    attr_spans: Vec<(u32, u32, u32, u32)>,
    raw: Vec<u8>,
    /// Bytes of the source's buffered window that belong to the event
    /// currently held in `slot` (zero-copy text): consumed on the next
    /// pull, after the borrow ends.
    defer_consume: usize,
    offset: u64,
    seen_root: bool,
    /// True when the next bytes to parse are the inside of a `<…>` tag (the
    /// `<` has already been consumed while scanning text).
    in_tag: bool,
    finished: bool,
}

impl<'s> Reader<&'s [u8]> {
    /// Parse from an in-memory string.
    #[allow(clippy::should_implement_trait)] // fallible trait shape does not fit
    pub fn from_str(s: &'s str) -> Self {
        Self::new(s.as_bytes(), ReaderOptions::default())
    }
}

impl<R: BufRead> Reader<R> {
    /// Create a reader over any buffered byte source.
    pub fn new(src: R, opts: ReaderOptions) -> Self {
        Reader {
            src,
            opts,
            scanner: Scanner::with_choice(opts.scanner),
            sidx: StructuralIndex::new(),
            fast_bytes: 0,
            general_bytes: 0,
            quick_hits: 0,
            quick_misses: 0,
            symbols: None,
            stack: Vec::new(),
            stack_buf: String::new(),
            pending: EventBuf::new(),
            pending_pos: 0,
            slot: Slot::None,
            cur_id: NameId::UNKNOWN,
            text_buf: String::new(),
            name_buf: String::new(),
            synth_buf: String::new(),
            attr_spans: Vec::new(),
            raw: Vec::new(),
            defer_consume: 0,
            offset: 0,
            seen_root: false,
            in_tag: false,
            finished: false,
        }
    }

    /// Create a reader that resolves tag names against a shared symbol
    /// table (see the [module docs](self)).
    pub fn with_symbols(src: R, opts: ReaderOptions, symbols: Arc<Symbols>) -> Self {
        let mut r = Self::new(src, opts);
        r.symbols = Some(symbols);
        r
    }

    /// Number of bytes consumed from the source so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        // An End event just delivered from the fast path leaves its pop
        // pending until the next pull; it is closed as far as callers are
        // concerned.
        self.stack.len() - usize::from(matches!(self.slot, Slot::StackPop))
    }

    /// Scan-path observability: selected backend and bytes consumed per
    /// path. See [`ScanTelemetry`] for why this never affects equality.
    pub fn scan_telemetry(&self) -> ScanTelemetry {
        ScanTelemetry {
            backend: self.scanner.backend(),
            fast_path_bytes: self.fast_bytes,
            general_path_bytes: self.general_bytes,
        }
    }

    fn err<T>(&self, kind: XmlErrorKind) -> Result<T, XmlError> {
        Err(XmlError { kind, offset: self.offset })
    }

    /// Quick-resolve cache counters `(hits, misses)` — see
    /// [`Symbols::resolve_traced`]. Telemetry only; never serialized.
    pub fn quick_counters(&self) -> (u64, u64) {
        (self.quick_hits, self.quick_misses)
    }

    /// Pull the next event. Returns `Ok(None)` at a well-formed end of
    /// document. The returned event borrows from the reader and must be
    /// released (dropped) before the next call.
    pub fn next_event(&mut self) -> Result<Option<Event<'_>>, XmlError> {
        Ok(self.next_resolved()?.map(ResolvedEvent::to_event))
    }

    /// Pull the next event with its tag name resolved to a [`NameId`]
    /// (see the [module docs](self)). Identical stream to
    /// [`Reader::next_event`], plus ids.
    ///
    /// Dispatches to a zero-copy fast path whenever the next construct sits
    /// entirely inside the source's buffered window and has the common
    /// shape (entity-free ASCII text, attribute-free ASCII tags); anything
    /// else — buffer boundaries, entities, attributes, comments, CDATA,
    /// DOCTYPE, non-ASCII names — takes the general accumulating path,
    /// which the fast path leaves completely untouched on fallback.
    pub fn next_resolved(&mut self) -> Result<Option<ResolvedEvent<'_>>, XmlError> {
        if self.advance()? {
            Ok(Some(self.current()?))
        } else {
            Ok(None)
        }
    }

    /// Parse up to the next event, leaving it described in `self.slot`.
    /// Returns `false` at a well-formed end of document. Split from the
    /// event materialization ([`Reader::current`]) so the incremental mode
    /// can inspect reader state between parsing and borrowing the event.
    fn advance(&mut self) -> Result<bool, XmlError> {
        self.commit_deferred();
        loop {
            // Deliver queued events first (attribute conversion etc.).
            if self.pending_pos < self.pending.len() {
                self.slot = Slot::Pending(self.pending_pos);
                self.pending_pos += 1;
                break;
            }
            if self.finished {
                return Ok(false);
            }
            if self.in_tag {
                self.in_tag = false;
                match self.fast_tag()? {
                    Fast::Emitted => break,
                    Fast::Skipped => continue,
                    Fast::Fallback => {
                        if self.parse_tag()? {
                            break;
                        }
                        continue; // comment / PI / doctype: nothing to report
                    }
                }
            }
            match self.fast_text()? {
                Fast::Emitted => break,
                Fast::Skipped => continue,
                Fast::Fallback => {}
            }
            // General path: scan character data until the next '<',
            // accumulating across buffer refills.
            self.raw.clear();
            let n = self.src.read_until(b'<', &mut self.raw).map_err(|e| XmlError {
                kind: XmlErrorKind::Io(e.to_string()),
                offset: self.offset,
            })?;
            self.offset += n as u64;
            self.general_bytes += n as u64;
            let saw_lt = self.raw.last() == Some(&b'<');
            let text_len = if saw_lt { self.raw.len() - 1 } else { self.raw.len() };
            let had_text = self.take_text(text_len)?;
            if saw_lt {
                self.in_tag = true;
            } else {
                // EOF.
                if !self.stack.is_empty() {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                if !self.seen_root {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.finished = true;
            }
            if had_text {
                self.slot = Slot::Text;
                break;
            }
        }
        Ok(true)
    }

    /// Release the previous event's deferred borrows now that it is
    /// delivered: the source-window bytes a zero-copy text held
    /// (`defer_consume`) and the stack pop of an end tag served from the
    /// stack arena (`Slot::StackPop`). Leaves the slot empty.
    #[inline]
    fn commit_deferred(&mut self) {
        if self.defer_consume > 0 {
            self.src.consume(self.defer_consume);
            self.defer_consume = 0;
        }
        if let Slot::StackPop = self.slot {
            let (off, _) = self.stack.pop().expect("deferred pop has an open element");
            self.stack_buf.truncate(off as usize);
        }
        self.slot = Slot::None;
    }

    /// Materialize the event described by `self.slot` (set by
    /// [`Reader::advance`]).
    fn current(&mut self) -> Result<ResolvedEvent<'_>, XmlError> {
        Ok(match &self.slot {
            Slot::Text => ResolvedEvent::Text(&self.text_buf),
            Slot::SrcText { len } => {
                let buf = self.src.fill_buf().map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                let run = &buf[..*len];
                debug_assert!(run.is_ascii(), "SrcText runs are scanner-verified ASCII");
                // SAFETY: `fast_text` emits `SrcText` only when the
                // structural scan's high-bit class over this exact run was
                // empty — the bytes are pure ASCII, hence valid UTF-8, and
                // the window cannot have moved (consume is deferred until
                // the next pull).
                let s = unsafe { std::str::from_utf8_unchecked(run) };
                ResolvedEvent::Text(s)
            }
            Slot::EndName => ResolvedEvent::End(self.cur_id, &self.name_buf),
            Slot::StartName => ResolvedEvent::Start(self.cur_id, &self.name_buf),
            Slot::StackTop => {
                let &(off, id) = self.stack.last().expect("open element for start slot");
                ResolvedEvent::Start(id, &self.stack_buf[off as usize..])
            }
            Slot::StackPop => {
                let &(off, id) = self.stack.last().expect("open element for end slot");
                ResolvedEvent::End(id, &self.stack_buf[off as usize..])
            }
            Slot::Pending(i) => self.pending.get(*i).expect("pending index in range"),
            Slot::None => unreachable!("slot set before break"),
        })
    }

    /// Zero-copy text scan: when the run up to the next `<` sits inside the
    /// buffered window and is entity-free ASCII, the text event borrows the
    /// window directly — no copy into `raw` or `text_buf`, and dropped
    /// whitespace runs are never even UTF-8 validated.
    fn fast_text(&mut self) -> Result<Fast, XmlError> {
        let buf = self
            .src
            .fill_buf()
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        if buf.is_empty() {
            // EOF, with nothing pending: same checks as the general path.
            if !self.stack.is_empty() || !self.seen_root {
                return self.err(XmlErrorKind::UnexpectedEof);
            }
            self.finished = true;
            return Ok(Fast::Skipped);
        }
        if buf[0] == b'<' {
            self.src.consume(1);
            self.offset += 1;
            self.fast_bytes += 1;
            self.in_tag = true;
            return Ok(Fast::Skipped);
        }
        // Stage 2 against the shared amortized index: find the `<`, then
        // read the run's properties straight from the masks.
        let mut shift = ensure_index(self.scanner, &mut self.sidx, self.offset, buf) as isize;
        let found =
            find_structural(self.scanner, &mut self.sidx, self.offset, &mut shift, buf, 0, false);
        let Some(pos) = found else {
            return Ok(Fast::Fallback); // run crosses the window: accumulate
        };
        let delta = shift as usize; // searching from 0 never shifts negative
        let (any_hi, any_amp, any_nonws) = self.sidx.text_props(delta, delta + pos);
        if any_hi || any_amp {
            return Ok(Fast::Fallback); // entities / non-ASCII: decode path
        }
        let emit = if !any_nonws {
            // Whitespace-only: reported only on request, inside the root.
            self.opts.keep_whitespace && !self.stack.is_empty()
        } else {
            if self.stack.is_empty() {
                // Report the error at the end of the run without moving
                // `self.offset`: nothing is consumed here, and the index
                // anchors on `offset` matching the window start.
                return Err(XmlError {
                    kind: XmlErrorKind::TextOutsideRoot,
                    offset: self.offset + pos as u64 + 1,
                });
            }
            true
        };
        self.offset += pos as u64 + 1;
        self.fast_bytes += pos as u64 + 1;
        self.in_tag = true;
        if emit {
            self.defer_consume = pos + 1;
            self.slot = Slot::SrcText { len: pos };
            Ok(Fast::Emitted)
        } else {
            self.src.consume(pos + 1);
            Ok(Fast::Skipped)
        }
    }

    /// Zero-copy tag parse: attribute-free ASCII start and end tags whose
    /// `>` sits inside the buffered window. Everything else (comments,
    /// CDATA, DOCTYPE, PIs, attributes, unicode names, mismatch errors)
    /// falls back to the general path, which re-reads the same bytes.
    fn fast_tag(&mut self) -> Result<Fast, XmlError> {
        let buf = self
            .src
            .fill_buf()
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        let mut shift = ensure_index(self.scanner, &mut self.sidx, self.offset, buf) as isize;
        let found =
            find_structural(self.scanner, &mut self.sidx, self.offset, &mut shift, buf, 0, true);
        let Some(pos) = found else {
            return Ok(Fast::Fallback);
        };
        let delta = shift as usize; // searching from 0 never shifts negative
        let body = &buf[..pos];
        match body.first() {
            None => Ok(Fast::Fallback), // `<>`: let the general path error
            Some(b'!' | b'?') => Ok(Fast::Fallback),
            Some(b'/') => {
                // End tag: the byte-compare against the open element *is*
                // the validity check; any mismatch (including trailing
                // whitespace or bad names) goes to the general path.
                let name = &body[1..];
                match self.stack.last() {
                    Some(&(off, _)) if self.stack_buf.as_bytes()[off as usize..] == *name => {
                        // Emit straight from the stack arena; the pop is
                        // deferred until the borrow ends (next pull).
                        self.src.consume(pos + 1);
                        self.offset += pos as u64 + 1;
                        self.fast_bytes += pos as u64 + 1;
                        self.slot = Slot::StackPop;
                        Ok(Fast::Emitted)
                    }
                    _ => Ok(Fast::Fallback),
                }
            }
            Some(&first) => {
                // Start tag. Name must be ASCII; after it either nothing, a
                // bare `/`, or an ASCII attribute list (handled by
                // `fast_attr_tag`); anything else falls back.
                if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
                    return Ok(Fast::Fallback);
                }
                if self.seen_root && self.stack.is_empty() {
                    return Ok(Fast::Fallback); // TrailingContent error path
                }
                // The index found the `>`, so it covers the whole tag body;
                // the name/attribute runs below parse from the same masks.
                let i = (self.sidx.name_run(delta + 1) - delta).min(body.len());
                let self_closing = match body.len() - i {
                    0 => false,
                    1 if body[i] == b'/' => true,
                    _ => return self.fast_attr_tag(delta, pos, i),
                };
                let name = std::str::from_utf8(&body[..i]).expect("ASCII-checked name");
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                self.seen_root = true;
                if self_closing {
                    // The end event goes to `pending`; the start borrows
                    // `name_buf` since nothing stays on the stack.
                    self.cur_id = id;
                    self.name_buf.clear();
                    self.name_buf.push_str(name);
                }
                open_element(
                    &mut self.pending,
                    &mut self.pending_pos,
                    &mut self.stack,
                    &mut self.stack_buf,
                    id,
                    name,
                    self_closing,
                );
                self.src.consume(pos + 1);
                self.offset += pos as u64 + 1;
                self.fast_bytes += pos as u64 + 1;
                self.slot = if self_closing { Slot::StartName } else { Slot::StackTop };
                Ok(Fast::Emitted)
            }
        }
    }

    /// Fast path for attribute-bearing ASCII start tags (the previously
    /// missing piece of the zero-copy path — XSAX conversion used to take
    /// the allocating fallback for every attributed tag). The attribute
    /// list is validated and sliced directly from the buffered window, then
    /// the conversion is synthesized straight into the pending arena: no
    /// raw-buffer accumulation, no UTF-8 revalidation, no per-attribute
    /// `String`s. Any deviation from the clean shape — non-ASCII bytes,
    /// entities in values, malformed syntax, reject mode — falls back with
    /// nothing consumed or mutated, and the general path re-reads the same
    /// bytes (so error offsets stay identical to the accumulating path).
    ///
    /// `delta` is the window start's position in the structural index,
    /// `pos` the index of the closing `>` in the buffered window, and
    /// `name_len` the length of the already-validated element name.
    fn fast_attr_tag(
        &mut self,
        delta: usize,
        pos: usize,
        name_len: usize,
    ) -> Result<Fast, XmlError> {
        if matches!(self.opts.attributes, AttributeMode::Reject) {
            return Ok(Fast::Fallback); // pure error path; let the slow path report it
        }
        // Split borrows: the window borrows `src` while the pending arena,
        // scratch buffers and element stack are written.
        let Reader {
            src,
            opts,
            symbols,
            sidx,
            stack,
            stack_buf,
            pending,
            pending_pos,
            slot,
            cur_id,
            name_buf,
            synth_buf,
            attr_spans,
            offset,
            seen_root,
            quick_hits,
            quick_misses,
            ..
        } = self;
        let buf = src
            .fill_buf()
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: *offset })?;
        let body = &buf[..pos];
        // `fast_tag` just found the `>` through this same (unconsumed)
        // window, so the index covers at least `delta + pos + 1` bytes and
        // is queried here at `delta`-shifted positions.
        debug_assert!(sidx.covered() > delta + pos);
        if sidx.any_hi(delta, delta + pos) {
            return Ok(Fast::Fallback);
        }
        // Phase 1: validate the whole attribute list before mutating
        // anything (`Fast::Fallback` must leave no trace).
        attr_spans.clear();
        let mut self_closing = false;
        let mut i = name_len;
        loop {
            // The `>` at `pos` is in no whitespace/name class, so the
            // mask-run queries below never pass `body.len()`.
            i = sidx.skip_ws(delta + i) - delta;
            if i == body.len() {
                break;
            }
            if body[i] == b'/' {
                if i + 1 == body.len() {
                    self_closing = true;
                    break;
                }
                return Ok(Fast::Fallback);
            }
            let ns = i;
            if !(body[i].is_ascii_alphabetic() || body[i] == b'_' || body[i] == b':') {
                return Ok(Fast::Fallback);
            }
            let ne = sidx.name_run(delta + i + 1) - delta;
            i = sidx.skip_ws(delta + ne) - delta;
            if i == body.len() || body[i] != b'=' {
                return Ok(Fast::Fallback);
            }
            i = sidx.skip_ws(delta + i + 1) - delta;
            if i == body.len() || (body[i] != b'"' && body[i] != b'\'') {
                return Ok(Fast::Fallback);
            }
            let quote = body[i];
            let vs = i + 1;
            // `&` needs entity decoding — the general path owns that; a
            // close quote at or past the `>` means the value runs off the
            // tag body, which the general path rejects too.
            i = match sidx.value_end(delta + vs, quote).map(|end| end - delta) {
                Some(end) if end < body.len() && body[end] == quote => end,
                _ => return Ok(Fast::Fallback),
            };
            attr_spans.push((ns as u32, ne as u32, vs as u32, i as u32));
            i += 1;
        }
        // Phase 2: commit. All slices are ASCII-checked above.
        let name = std::str::from_utf8(&body[..name_len]).expect("ASCII-checked name");
        let symbols: &Option<Arc<Symbols>> = symbols;
        let mut resolve = |n: &str| resolve_counted(symbols, quick_hits, quick_misses, n);
        let id = resolve(name);
        *seen_root = true;
        let emitted = if attr_spans.is_empty() || matches!(opts.attributes, AttributeMode::Drop) {
            // `<a  >` / drop mode: a plain start tag.
            open_element(pending, pending_pos, stack, stack_buf, id, name, self_closing);
            *slot = if self_closing {
                *cur_id = id;
                name_buf.clear();
                name_buf.push_str(name);
                Slot::StartName
            } else {
                Slot::StackTop
            };
            true
        } else {
            // XSAX conversion into the pending arena, exactly as the
            // general path does it (which guarantees the batch invariant:
            // the previous batch was fully delivered before a new tag).
            if *pending_pos == pending.len() {
                pending.clear();
                *pending_pos = 0;
            }
            pending.push_start(id, name);
            for &(ns, ne, vs, ve) in attr_spans.iter() {
                let attr = std::str::from_utf8(&body[ns as usize..ne as usize])
                    .expect("ASCII-checked attribute name");
                converted_name_into(name, attr, synth_buf);
                let sub_id = resolve(synth_buf);
                pending.push_start(sub_id, synth_buf);
                if ve > vs {
                    let value = std::str::from_utf8(&body[vs as usize..ve as usize])
                        .expect("ASCII-checked attribute value");
                    pending.push_text(value);
                }
                pending.push_end(sub_id, synth_buf);
            }
            open_element(pending, pending_pos, stack, stack_buf, id, name, self_closing);
            false // caller loop pops from `pending`
        };
        self.src.consume(pos + 1);
        self.offset += pos as u64 + 1;
        self.fast_bytes += pos as u64 + 1;
        Ok(if emitted { Fast::Emitted } else { Fast::Skipped })
    }

    /// Decode and stash the first `len` bytes of `self.raw` as character
    /// data; returns whether a text event should be emitted.
    fn take_text(&mut self, len: usize) -> Result<bool, XmlError> {
        if len == 0 {
            return Ok(false);
        }
        let s = std::str::from_utf8(&self.raw[..len])
            .map_err(|_| XmlError { kind: XmlErrorKind::Utf8, offset: self.offset })?;
        let is_ws = s.chars().all(char::is_whitespace);
        if is_ws && (!self.opts.keep_whitespace || self.stack.is_empty()) {
            return Ok(false);
        }
        if self.stack.is_empty() {
            if is_ws {
                return Ok(false);
            }
            return self.err(XmlErrorKind::TextOutsideRoot);
        }
        self.text_buf.clear();
        crate::escape::unescape_into(s, &mut self.text_buf)
            .map_err(|m| XmlError { kind: XmlErrorKind::Syntax(m), offset: self.offset })?;
        Ok(true)
    }

    /// Parse one `<…>` construct (the leading `<` is already consumed).
    /// Returns true when an event was produced (in `slot` or `pending`).
    fn parse_tag(&mut self) -> Result<bool, XmlError> {
        self.raw.clear();
        let n = self
            .src
            .read_until(b'>', &mut self.raw)
            .map_err(|e| XmlError { kind: XmlErrorKind::Io(e.to_string()), offset: self.offset })?;
        self.offset += n as u64;
        self.general_bytes += n as u64;
        if self.raw.last() != Some(&b'>') {
            return self.err(XmlErrorKind::UnexpectedEof);
        }
        self.raw.pop();

        // Comments, CDATA and DOCTYPE may legitimately contain '>'.
        if self.raw.starts_with(b"!--") {
            while !self.raw.ends_with(b"--") || self.raw.len() < 5 {
                let m = self.src.read_until(b'>', &mut self.raw).map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                if m == 0 {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.offset += m as u64;
                self.general_bytes += m as u64;
                if self.raw.last() == Some(&b'>') {
                    self.raw.pop();
                } else {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
            }
            return Ok(false);
        }
        if self.raw.starts_with(b"![CDATA[") {
            while !self.raw.ends_with(b"]]") {
                // The '>' we consumed was CDATA content, not the terminator.
                self.raw.push(b'>');
                let m = self.src.read_until(b'>', &mut self.raw).map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                if m == 0 {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.offset += m as u64;
                self.general_bytes += m as u64;
                if self.raw.last() == Some(&b'>') {
                    self.raw.pop();
                } else {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
            }
            if self.stack.is_empty() {
                return self.err(XmlErrorKind::TextOutsideRoot);
            }
            let inner = &self.raw[8..self.raw.len() - 2];
            let s = std::str::from_utf8(inner)
                .map_err(|_| XmlError { kind: XmlErrorKind::Utf8, offset: self.offset })?;
            self.text_buf.clear();
            self.text_buf.push_str(s);
            self.slot = Slot::Text;
            return Ok(true);
        }
        if self.raw.starts_with(b"!") {
            // DOCTYPE (possibly with an internal subset containing '>').
            let mut depth = self.raw.iter().filter(|&&b| b == b'[').count() as i64
                - self.raw.iter().filter(|&&b| b == b']').count() as i64;
            while depth > 0 {
                let m = self.src.read_until(b'>', &mut self.raw).map_err(|e| XmlError {
                    kind: XmlErrorKind::Io(e.to_string()),
                    offset: self.offset,
                })?;
                if m == 0 {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
                self.offset += m as u64;
                self.general_bytes += m as u64;
                let added = &self.raw[self.raw.len() - m..];
                depth += added.iter().filter(|&&b| b == b'[').count() as i64
                    - added.iter().filter(|&&b| b == b']').count() as i64;
                if self.raw.last() == Some(&b'>') {
                    self.raw.pop();
                } else {
                    return self.err(XmlErrorKind::UnexpectedEof);
                }
            }
            return Ok(false);
        }
        if self.raw.starts_with(b"?") {
            // Processing instruction / XML declaration; ignored.
            return Ok(false);
        }

        let body = std::str::from_utf8(&self.raw)
            .map_err(|_| XmlError { kind: XmlErrorKind::Utf8, offset: self.offset })?;
        if let Some(name_part) = body.strip_prefix('/') {
            // End tag. The match against the open element is the validity
            // check (the name was checked when it was opened); only the
            // mismatch path re-examines it.
            let name = name_part.trim();
            match self.stack.last().copied() {
                Some((off, id)) if self.stack_buf[off as usize..] == *name => {
                    self.stack.pop();
                    self.stack_buf.truncate(off as usize);
                    self.cur_id = id;
                    self.name_buf.clear();
                    self.name_buf.push_str(name);
                    self.slot = Slot::EndName;
                    return Ok(true);
                }
                top => {
                    check_name(name).map_err(|m| XmlError {
                        kind: XmlErrorKind::Syntax(m),
                        offset: self.offset,
                    })?;
                    let expected = top.map(|(off, _)| self.stack_buf[off as usize..].to_string());
                    return self
                        .err(XmlErrorKind::MismatchedTag { expected, found: name.to_string() });
                }
            }
        }

        // Start tag.
        if self.seen_root && self.stack.is_empty() {
            return self.err(XmlErrorKind::TrailingContent);
        }
        let (body, self_closing) = match body.strip_suffix('/') {
            Some(b) => (b, true),
            None => (body, false),
        };
        let body = body.trim_end();
        let name_end = body.find(|c: char| c.is_whitespace()).unwrap_or(body.len());
        let name = &body[..name_end];
        check_name(name)
            .map_err(|m| XmlError { kind: XmlErrorKind::Syntax(m), offset: self.offset })?;
        let attr_src = body[name_end..].trim();

        self.seen_root = true;
        if attr_src.is_empty() {
            // Fast path: no attributes. One hash, no allocation — the open
            // element's name bytes go to the flat stack arena.
            let id =
                resolve_counted(&self.symbols, &mut self.quick_hits, &mut self.quick_misses, name);
            self.cur_id = id;
            self.name_buf.clear();
            self.name_buf.push_str(name);
            open_element(
                &mut self.pending,
                &mut self.pending_pos,
                &mut self.stack,
                &mut self.stack_buf,
                id,
                name,
                self_closing,
            );
            self.slot = Slot::StartName;
            return Ok(true);
        }

        let attrs = parse_attributes(attr_src)
            .map_err(|m| XmlError { kind: XmlErrorKind::Syntax(m), offset: self.offset })?;
        match self.opts.attributes {
            AttributeMode::Reject => self.err(XmlErrorKind::AttributeRejected {
                element: name.to_string(),
                attribute: attrs[0].0.clone(),
            }),
            AttributeMode::Drop => {
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                self.cur_id = id;
                self.name_buf.clear();
                self.name_buf.push_str(name);
                open_element(
                    &mut self.pending,
                    &mut self.pending_pos,
                    &mut self.stack,
                    &mut self.stack_buf,
                    id,
                    name,
                    self_closing,
                );
                self.slot = Slot::StartName;
                Ok(true)
            }
            AttributeMode::ConvertToSubelements => {
                // XSAX conversion straight into the pending arena: the
                // element's start, one Start/Text/End triple per attribute
                // and (for self-closing tags) the end. The loop invariant
                // guarantees the previous pending batch was delivered.
                if self.pending_pos == self.pending.len() {
                    self.pending.clear();
                    self.pending_pos = 0;
                }
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                self.pending.push_start(id, name);
                for (attr, value) in &attrs {
                    converted_name_into(name, attr, &mut self.synth_buf);
                    let sub_id = resolve_counted(
                        &self.symbols,
                        &mut self.quick_hits,
                        &mut self.quick_misses,
                        &self.synth_buf,
                    );
                    self.pending.push_start(sub_id, &self.synth_buf);
                    if !value.is_empty() {
                        self.pending.push_text(value);
                    }
                    self.pending.push_end(sub_id, &self.synth_buf);
                }
                // The pending buffer is non-empty (start pushed above), so
                // `open_element` will not reclaim it mid-batch.
                open_element(
                    &mut self.pending,
                    &mut self.pending_pos,
                    &mut self.stack,
                    &mut self.stack_buf,
                    id,
                    name,
                    self_closing,
                );
                // Caller loop pops from `pending`.
                Ok(false)
            }
        }
    }

    /// Drain the whole document into owned events (testing convenience).
    pub fn read_to_end(&mut self) -> Result<Vec<OwnedEvent>, XmlError> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event()? {
            out.push(ev.to_owned());
        }
        Ok(out)
    }
}

/// The byte source of the incremental (sans-IO) reader: bytes arrive via
/// [`Reader::feed`] and are parsed in place — no worker thread, no blocking
/// reads. `fill_buf` exposes the whole unconsumed window, so the zero-copy
/// fast paths see maximal runs; running out of fed bytes is recorded in
/// `hit_end`, which [`Reader::poll_resolved`] uses to distinguish "no more
/// bytes *yet*" from true end of input and to roll back parse attempts that
/// ran off the end.
#[derive(Debug, Default)]
pub struct FeedSource {
    buf: Vec<u8>,
    pos: usize,
    closed: bool,
    /// A read touched the end of the fed bytes while the source was open.
    hit_end: bool,
    /// Text-scan position hint: `buf[pos..lt_scanned]` is known to contain
    /// no `<`. A text run fed in many tiny chunks is scanned once per
    /// *byte*, not once per *poll* — without the hint every poll re-scans
    /// the run from its start, worst-case O(n²) on pathological
    /// fragmentation. Maintained by [`Reader::poll_resolved`]; may lag
    /// behind `pos` (then it is simply ignored).
    lt_scanned: usize,
    /// Window generation counter, bumped on every [`FeedSource::feed`].
    /// Tape window spans record the epoch they were taken against, so
    /// materializing a stale span (after the compaction in `feed` shifted
    /// the buffer) is caught in debug builds.
    epoch: u64,
}

impl FeedSource {
    fn feed(&mut self, bytes: &[u8]) {
        // Reclaim the committed prefix before growing: a long-lived session
        // retains only the unparsed tail, not the whole document so far.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.lt_scanned = self.lt_scanned.saturating_sub(self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.epoch += 1;
    }
}

impl io::Read for FeedSource {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for FeedSource {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() && !self.closed {
            self.hit_end = true;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// One step of the incremental parse ([`Reader::poll_resolved`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled<'a> {
    /// The next event of the stream.
    Event(ResolvedEvent<'a>),
    /// The fed bytes end mid-construct: [`Reader::feed`] more (or
    /// [`Reader::close`]) and poll again.
    NeedMoreData,
    /// The source is closed and the document fully parsed.
    End,
}

/// Outcome of one [`Reader::fill_tape`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapeFill {
    /// The batch reached capacity: drain the tape and fill again.
    Full,
    /// The fed bytes ended mid-construct: drain the tape, then
    /// [`Reader::feed`] more (or [`Reader::close`]) and fill again.
    NeedMoreData,
    /// The source is closed and the document fully parsed.
    End,
}

/// Outcome of one [`Reader::skip_events`] structural fast-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipPoll {
    /// The subtree is fully scanned past: `events` interior events were
    /// skipped, and the end tag closing it is next — still undelivered (the
    /// next [`Reader::fill_tape`] batch opens with it), unless the general
    /// machinery had already committed it, in which case it is the single
    /// event on the tape passed in (drain it before the next fill).
    Closed { events: u64 },
    /// The fed bytes ran out `depth` levels inside the subtree after
    /// skipping `events` events: [`Reader::feed`] more (or
    /// [`Reader::close`]) and re-enter.
    More { events: u64, depth: u32 },
}

/// Rollback point for the incremental mode: everything an event-parse
/// attempt may mutate *before* the construct is known to fit in the fed
/// bytes. State the parser only touches once a construct is complete
/// (pending-arena reclaim, element-stack pops) needs no undo — completion
/// is immediately followed by event delivery, never by another source read.
#[derive(Clone, Copy)]
struct Checkpoint {
    src_pos: usize,
    offset: u64,
    seen_root: bool,
    in_tag: bool,
    finished: bool,
    stack_len: usize,
    stack_buf_len: usize,
    pending_len: usize,
    pending_pos: usize,
}

/// Outcome of one checkpointed general step ([`Reader::step`]).
enum Step {
    /// An event was parsed; `slot` describes it.
    Event,
    /// The fed bytes end mid-construct; the attempt was rolled back.
    NeedMoreData,
    /// The source is closed and the document fully parsed.
    End,
}

/// How a lean window walk ([`Reader::walk`]) ended. Every exit but
/// `Closed` leaves the reader committed at the last event boundary.
enum Exit {
    /// A construct the walk does not handle (attributes, entities,
    /// comments, CDATA, window-crossing constructs, the root's end tag,
    /// EOF): one general step takes over.
    Fallback,
    /// The batch cap was reached.
    Full,
    /// No `<` between the boundary and the end of a still-open window:
    /// nothing can complete before more bytes arrive.
    NoLt,
    /// The next end tag closes the walk (a skip at depth 1): the reader
    /// stops just past its `<`, and the next step delivers the tag — or,
    /// on a mismatch, its error.
    Closed,
}

/// What the lean window walk does with the events it passes: a tape fill
/// records them ([`EventTape`]), a structural skip counts them ([`Skip`]).
trait Lean {
    /// Is there room for `n` more events? (The tape's batch cap.)
    fn room(&self, n: usize) -> bool;
    /// Does the next end tag close the walk?
    fn closes(&self) -> bool;
    /// One lean event; its payload (text run or tag name) is the
    /// scanner-verified ASCII run of `len` bytes at window offset `off`.
    fn event(&mut self, kind: TapeKind, id: NameId, off: usize, len: usize);
}

impl Lean for EventTape {
    #[inline]
    fn room(&self, n: usize) -> bool {
        self.items.len() + n <= TAPE_BATCH_EVENTS
    }

    #[inline]
    fn closes(&self) -> bool {
        false
    }

    #[inline]
    fn event(&mut self, kind: TapeKind, id: NameId, off: usize, len: usize) {
        self.push_window(kind, id, off, len);
    }
}

/// A structural skip in progress: unclosed levels inside the skipped
/// subtree and events passed so far.
struct Skip {
    depth: u32,
    events: u64,
}

impl Lean for Skip {
    #[inline]
    fn room(&self, _: usize) -> bool {
        true
    }

    #[inline]
    fn closes(&self) -> bool {
        self.depth == 1
    }

    #[inline]
    fn event(&mut self, kind: TapeKind, _: NameId, _: usize, _: usize) {
        match kind {
            TapeKind::Start => self.depth += 1,
            TapeKind::End => self.depth -= 1,
            TapeKind::Text => {}
        }
        self.events += 1;
    }
}

impl Reader<FeedSource> {
    /// An incremental reader: push bytes with [`Reader::feed`], pull events
    /// with [`Reader::poll_resolved`]. See the [module docs](self).
    pub fn incremental(opts: ReaderOptions) -> Reader<FeedSource> {
        Reader::new(FeedSource::default(), opts)
    }

    /// [`Reader::incremental`] resolving names against a shared symbol
    /// table, like [`Reader::with_symbols`].
    pub fn incremental_with_symbols(
        opts: ReaderOptions,
        symbols: Arc<Symbols>,
    ) -> Reader<FeedSource> {
        Reader::with_symbols(FeedSource::default(), opts, symbols)
    }

    /// Append the next chunk of the document. Chunks may split the XML at
    /// any byte boundary, including inside tags and multi-byte characters.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.src.feed(bytes);
    }

    /// Signal end of input: subsequent polls parse to completion instead of
    /// asking for more data.
    pub fn close(&mut self) {
        self.src.closed = true;
    }

    /// Has [`Reader::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.src.closed
    }

    /// Bytes fed but not yet consumed by the parser (at a quiescent point:
    /// the tail of an incomplete construct).
    pub fn unconsumed_bytes(&self) -> usize {
        self.src.buf.len() - self.src.pos
    }

    /// Parse the next event from the fed bytes. Returns
    /// [`Polled::NeedMoreData`] — with the reader state fully rolled back —
    /// when the bytes end mid-construct and the source is not closed, so
    /// the event stream (and every error, with its offset) is byte-for-byte
    /// identical to a blocking [`Reader::next_resolved`] run over the
    /// concatenation of the chunks.
    pub fn poll_resolved(&mut self) -> Result<Polled<'_>, XmlError> {
        Ok(match self.step()? {
            Step::Event => Polled::Event(self.current()?),
            Step::NeedMoreData => Polled::NeedMoreData,
            Step::End => Polled::End,
        })
    }

    /// One step of the general machinery, shared by every incremental
    /// entry point: commit the previous event's deferred borrows, then
    /// [`Reader::advance`] under a [`Checkpoint`]. An attempt that runs
    /// out of fed bytes while the source is still open is rolled back and
    /// reports [`Step::NeedMoreData`].
    #[inline]
    fn step(&mut self) -> Result<Step, XmlError> {
        // The delivered event's bytes must never re-parse: commit before
        // the checkpoint (rollback can only truncate, so a deferred pop
        // must precede it too).
        self.commit_deferred();
        // Text-scan fast exit: at a quiescent point outside a tag, no event
        // can complete before the next `<` arrives (a text run only ends at
        // `<` or at close). Scan just the bytes the hint has not covered —
        // the parse attempt below would otherwise re-scan (and the general
        // path re-copy) the whole pending run on every poll, O(n²) when a
        // long run is fed in tiny chunks.
        if !self.in_tag
            && !self.finished
            && !self.src.closed
            && self.pending_pos >= self.pending.len()
        {
            let from = self.src.pos.max(self.src.lt_scanned);
            match self.scanner.find_byte(b'<', &self.src.buf[from..]) {
                Some(i) => self.src.lt_scanned = from + i,
                None => {
                    self.src.lt_scanned = self.src.buf.len();
                    return Ok(Step::NeedMoreData);
                }
            }
        }
        let cp = self.checkpoint();
        self.src.hit_end = false;
        match self.advance() {
            Ok(true) => {
                debug_assert!(
                    !self.src.hit_end || self.src.closed,
                    "an emitted event must not depend on bytes past the fed window"
                );
                Ok(Step::Event)
            }
            Ok(false) | Err(_) if self.src.hit_end && !self.src.closed => {
                self.restore(cp);
                Ok(Step::NeedMoreData)
            }
            Ok(false) => Ok(Step::End),
            Err(e) => Err(e),
        }
    }

    /// Parse as many events as fit into one tape batch. See
    /// [`crate::tape`] for the lifecycle; this is the batched sibling of
    /// [`Reader::poll_resolved`] — same state machine, same rollback
    /// discipline, same event stream — minus the per-event slot handshake:
    /// lean constructs are recorded by the window walk, and every other
    /// event is recorded onto the tape as soon as one general step parses
    /// it, with its deferred window/stack borrows committed immediately.
    ///
    /// On [`TapeFill::NeedMoreData`] only the trailing *partial* construct
    /// is rolled back; everything recorded stands and must be drained
    /// (via [`Reader::tape_event`]) before the next [`Reader::feed`],
    /// which compacts the window the tape's text spans point into.
    pub fn fill_tape(&mut self, tape: &mut EventTape) -> Result<TapeFill, XmlError> {
        debug_assert!(tape.is_empty(), "previous batch must be drained before a refill");
        tape.clear();
        tape.epoch = self.src.epoch;
        // Commit borrows a preceding per-event pull may have left open
        // (the two modes may be mixed freely on one reader).
        self.commit_deferred();
        loop {
            if tape.is_full() {
                return Ok(TapeFill::Full);
            }
            // Inside the root with no queued events, the walk records
            // straight off the window; the document edges, pending drains
            // and everything non-lean take one general step.
            if !self.finished && self.pending_pos >= self.pending.len() && !self.stack.is_empty() {
                match self.walk(tape) {
                    Exit::Fallback => {}
                    Exit::Full => return Ok(TapeFill::Full),
                    Exit::NoLt => return Ok(TapeFill::NeedMoreData),
                    Exit::Closed => unreachable!("a recording walk never closes"),
                }
            }
            match self.step()? {
                Step::Event => self.record(tape),
                Step::NeedMoreData => return Ok(TapeFill::NeedMoreData),
                Step::End => return Ok(TapeFill::End),
            }
        }
    }

    /// Structurally fast-forward over a subtree the consumer declared dead
    /// (a pump reporting `SkipSubtree`): parse past events until the end
    /// tag closing the subtree — `depth` unclosed levels deep at entry —
    /// is next, *counting* them but never recording, materializing or
    /// copying them. The common shape — entity-free text runs and
    /// attribute-free ASCII tags — is counted by the window walk at one
    /// structural-index probe per event; queued conversion events are
    /// counted straight off the pending buffer; everything else
    /// (attributes, entities, comments, CDATA, window-crossing constructs)
    /// takes exactly one general step per event.
    ///
    /// Transparency: byte accounting, name interning, stack discipline and
    /// error surfacing mirror [`Reader::fill_tape`] pulling the same
    /// events, and a window-exhausted return rolls back to the same event
    /// boundary a per-event poll would report `NeedMoreData` from — so a
    /// snapshot taken at any quiescent point is byte-identical to a run
    /// that delivered every event.
    ///
    /// `tape` must be drained; it is written only when the general
    /// machinery has already committed the closing end tag, which then
    /// rides back as the tape's single event (see [`SkipPoll::Closed`]).
    pub fn skip_events(&mut self, depth: u32, tape: &mut EventTape) -> Result<SkipPoll, XmlError> {
        debug_assert!(tape.is_empty(), "previous batch must be drained before a skip");
        debug_assert!(depth >= 1, "a skip is only active inside its subtree");
        debug_assert!(!self.finished, "a document cannot finish inside a subtree");
        tape.clear();
        tape.epoch = self.src.epoch;
        // Commit borrows a preceding per-event pull may have left open.
        self.commit_deferred();
        let mut skip = Skip { depth, events: 0 };
        loop {
            if self.pending_pos < self.pending.len() {
                // Queued conversion events (attribute children,
                // self-closing ends): no source read, so no checkpoint.
                self.slot = Slot::Pending(self.pending_pos);
                self.pending_pos += 1;
            } else {
                match self.walk(&mut skip) {
                    Exit::Fallback => {}
                    Exit::NoLt => {
                        return Ok(SkipPoll::More { events: skip.events, depth: skip.depth })
                    }
                    Exit::Closed => return Ok(SkipPoll::Closed { events: skip.events }),
                    Exit::Full => unreachable!("a skip has no batch cap"),
                }
                match self.step()? {
                    Step::Event => {}
                    Step::NeedMoreData => {
                        return Ok(SkipPoll::More { events: skip.events, depth: skip.depth })
                    }
                    Step::End => unreachable!("a document cannot end inside a skipped subtree"),
                }
            }
            let kind = self.slot_kind();
            if kind == TapeKind::End && skip.closes() {
                // The event closing the subtree is already parsed (and any
                // stack pop committed): hand it back on the tape for
                // normal delivery instead of rolling back.
                self.record(tape);
                return Ok(SkipPoll::Closed { events: skip.events });
            }
            skip.event(kind, NameId::UNKNOWN, 0, 0);
            self.commit_deferred();
        }
    }

    /// The lean window walk of [`Reader::fill_tape`] (which records) and
    /// [`Reader::skip_events`] (which counts): a local cursor walks the fed
    /// window *without consuming*, handing entity-free clean text runs and
    /// attribute-free ASCII tags to `lean` as window spans — no
    /// advance/slot handshake, no per-event checkpoint, no arena copies.
    ///
    /// The loop touches no reader state it might have to undo: stack
    /// pushes and pops happen only *at* event boundaries, and position,
    /// offset, `in_tag` and the fast-path byte counter are committed in
    /// bulk at the exit, at the last event boundary `(b_lpos, b_in_tag)`
    /// (a closing walk keeps the closing tag's `<`). Non-event progress
    /// past the boundary (a dropped whitespace run, the `<` opening a tag)
    /// is left to be re-read: a window-exhausted exit is exactly the state
    /// a per-event poll reports `NeedMoreData` from, and a fallback step
    /// re-reads those bytes on the path — and into the counters —
    /// per-event delivery would.
    ///
    /// The caller starts the walk inside the root with no queued events.
    /// Lean end tags are gated to `stack.len() >= 2`, so closing the root
    /// (and the `finished` transition) always rides the general path; a
    /// skip never gets that far, as it closes at its depth 1 first.
    fn walk<L: Lean>(&mut self, lean: &mut L) -> Exit {
        let start = self.src.pos;
        let off0 = self.offset;
        let closed = self.src.closed;
        let keep_ws = self.opts.keep_whitespace;
        let buf = &self.src.buf[start..];
        let mut shift = ensure_index(self.scanner, &mut self.sidx, off0, buf) as isize;
        let mut lpos = 0usize;
        let mut in_tag = self.in_tag;
        let mut b_lpos = 0usize;
        let mut b_in_tag = in_tag;
        let exit = 'burst: loop {
            if !lean.room(1) {
                break 'burst Exit::Full;
            }
            if !in_tag {
                // ---- text step: mirrors `fast_text` ----
                if lpos >= buf.len() {
                    // Out of bytes at a boundary: the general path reports
                    // EOF, or more bytes are needed.
                    break 'burst if closed { Exit::Fallback } else { Exit::NoLt };
                }
                if buf[lpos] == b'<' {
                    lpos += 1;
                    in_tag = true;
                    continue 'burst;
                }
                let found = find_structural(
                    self.scanner,
                    &mut self.sidx,
                    off0,
                    &mut shift,
                    buf,
                    lpos,
                    false,
                );
                let Some(p) = found else {
                    break 'burst if closed { Exit::Fallback } else { Exit::NoLt };
                };
                let (any_hi, any_amp, any_nonws) = self
                    .sidx
                    .text_props(lpos.wrapping_add_signed(shift), p.wrapping_add_signed(shift));
                if any_hi || any_amp {
                    break 'burst Exit::Fallback; // entities / non-ASCII: decode path
                }
                if any_nonws || keep_ws {
                    lean.event(TapeKind::Text, NameId::UNKNOWN, start + lpos, p - lpos);
                    b_lpos = p + 1;
                    b_in_tag = true;
                }
                lpos = p + 1;
                in_tag = true;
                continue 'burst;
            }
            // ---- tag step: mirrors `fast_tag` ----
            let found =
                find_structural(self.scanner, &mut self.sidx, off0, &mut shift, buf, lpos, true);
            let Some(p) = found else {
                break 'burst Exit::Fallback; // crossing tag or EOF
            };
            let body = &buf[lpos..p];
            let Some(&first) = body.first() else {
                break 'burst Exit::Fallback; // `<>`: the general path errors
            };
            if first == b'/' {
                if lean.closes() {
                    break 'burst Exit::Closed;
                }
                if self.stack.len() < 2 {
                    break 'burst Exit::Fallback; // root close: general path
                }
                match self.stack.last() {
                    Some(&(off, _)) if self.stack_buf.as_bytes()[off as usize..] == body[1..] => {}
                    // Trailing whitespace or a genuine mismatch: the
                    // general path re-examines it.
                    _ => break 'burst Exit::Fallback,
                }
                let (off, id) = self.stack.pop().expect("open element inside the root");
                self.stack_buf.truncate(off as usize);
                lean.event(TapeKind::End, id, start + lpos + 1, body.len() - 1);
            } else {
                if !(first.is_ascii_alphabetic() || first == b'_' || first == b':') {
                    break 'burst Exit::Fallback; // comments, PIs, DOCTYPE
                }
                let bpos = lpos.wrapping_add_signed(shift);
                let i = (self.sidx.name_run(bpos + 1) - bpos).min(body.len());
                let self_closing = match body.len() - i {
                    0 => false,
                    1 if body[i] == b'/' => true,
                    _ => break 'burst Exit::Fallback, // attribute list: conversion path
                };
                if self_closing && !lean.room(2) {
                    // The pair would overshoot the batch cap: the general
                    // path records the start and queues the end for the
                    // next batch, exactly as per-event delivery splits it.
                    break 'burst Exit::Fallback;
                }
                // SAFETY: `first` was checked ASCII above and `body[1..i]`
                // lies inside the scanner's name-class run, an ASCII subset.
                let name = unsafe { std::str::from_utf8_unchecked(&body[..i]) };
                let id = resolve_counted(
                    &self.symbols,
                    &mut self.quick_hits,
                    &mut self.quick_misses,
                    name,
                );
                if !self_closing {
                    let off = self.stack_buf.len() as u32;
                    self.stack_buf.push_str(name);
                    self.stack.push((off, id));
                }
                lean.event(TapeKind::Start, id, start + lpos, i);
                if self_closing {
                    lean.event(TapeKind::End, id, start + lpos, i);
                }
            }
            lpos = p + 1;
            in_tag = false;
            b_lpos = lpos;
            b_in_tag = false;
        };
        // A closing walk keeps the closing tag's `<` consumed, so the next
        // step parses that tag straight away.
        let (end, in_tag) = match exit {
            Exit::Closed => (lpos, in_tag),
            _ => (b_lpos, b_in_tag),
        };
        self.src.pos = start + end;
        self.offset = off0 + end as u64;
        self.fast_bytes += end as u64;
        self.in_tag = in_tag;
        if let Exit::NoLt = exit {
            // The step fast exit's scan hint: no `<` between the committed
            // position and the window end.
            self.src.lt_scanned = self.src.buf.len();
        }
        exit
    }

    /// The structural kind of the event described by `self.slot`.
    fn slot_kind(&self) -> TapeKind {
        match self.slot {
            Slot::Text | Slot::SrcText { .. } => TapeKind::Text,
            Slot::StartName | Slot::StackTop => TapeKind::Start,
            Slot::EndName | Slot::StackPop => TapeKind::End,
            Slot::Pending(i) => match self.pending.get(i).expect("pending index in range") {
                ResolvedEvent::Start(..) => TapeKind::Start,
                ResolvedEvent::End(..) => TapeKind::End,
                ResolvedEvent::Text(_) => TapeKind::Text,
            },
            Slot::None => unreachable!("slot set before use"),
        }
    }

    /// Record the event described by `self.slot` onto the tape, then
    /// commit its deferred borrows on the spot: the tape holds its own
    /// copy — or, for zero-copy text, a window span that outlives the
    /// consume, since the buffer is only compacted by the next `feed`.
    fn record(&mut self, tape: &mut EventTape) {
        match self.slot {
            Slot::SrcText { len } => {
                debug_assert!(self.src.buf[self.src.pos..self.src.pos + len].is_ascii());
                tape.push_window(TapeKind::Text, NameId::UNKNOWN, self.src.pos, len);
            }
            Slot::Text => tape.push_arena(TapeKind::Text, NameId::UNKNOWN, &self.text_buf),
            Slot::EndName => tape.push_arena(TapeKind::End, self.cur_id, &self.name_buf),
            Slot::StartName => tape.push_arena(TapeKind::Start, self.cur_id, &self.name_buf),
            Slot::StackTop | Slot::StackPop => {
                let &(off, id) = self.stack.last().expect("open element for a stack slot");
                let kind = self.slot_kind();
                tape.push_arena(kind, id, &self.stack_buf[off as usize..]);
            }
            Slot::Pending(i) => match self.pending.get(i).expect("pending index in range") {
                ResolvedEvent::Start(id, name) => tape.push_arena(TapeKind::Start, id, name),
                ResolvedEvent::End(id, name) => tape.push_arena(TapeKind::End, id, name),
                ResolvedEvent::Text(t) => tape.push_arena(TapeKind::Text, NameId::UNKNOWN, t),
            },
            Slot::None => unreachable!("slot set before record"),
        }
        self.commit_deferred();
    }

    /// Materialize one recorded tape event. Window spans borrow the
    /// reader's unconsumed buffer (hence `&self` on the reader); arena
    /// spans borrow the tape.
    #[inline]
    pub fn tape_event<'a>(&'a self, tape: &'a EventTape, i: usize) -> ResolvedEvent<'a> {
        let it = tape.item(i);
        let payload: &str = if it.window {
            debug_assert_eq!(tape.epoch, self.src.epoch, "tape drained after a feed compaction");
            let run = &self.src.buf[it.off as usize..(it.off + it.len) as usize];
            debug_assert!(run.is_ascii(), "window spans are scanner-verified ASCII");
            // SAFETY: window spans are recorded only for scanner-verified
            // ASCII bytes — clean text runs and the name bytes of tags the
            // window walk took (first byte ASCII-checked, rest a
            // `name_run`); the buffer is not compacted between record and
            // drain (epoch-checked above).
            unsafe { std::str::from_utf8_unchecked(run) }
        } else {
            tape.arena_str(it.off, it.len)
        };
        match it.kind {
            TapeKind::Start => ResolvedEvent::Start(it.id, payload),
            TapeKind::End => ResolvedEvent::End(it.id, payload),
            TapeKind::Text => ResolvedEvent::Text(payload),
        }
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            src_pos: self.src.pos,
            offset: self.offset,
            seen_root: self.seen_root,
            in_tag: self.in_tag,
            finished: self.finished,
            stack_len: self.stack.len(),
            stack_buf_len: self.stack_buf.len(),
            pending_len: self.pending.len(),
            pending_pos: self.pending_pos,
        }
    }

    fn restore(&mut self, cp: Checkpoint) {
        debug_assert!(
            self.stack.len() >= cp.stack_len && self.pending.len() >= cp.pending_len,
            "rollback cannot restore popped state (see Checkpoint docs)"
        );
        self.src.pos = cp.src_pos;
        self.offset = cp.offset;
        self.seen_root = cp.seen_root;
        self.in_tag = cp.in_tag;
        self.finished = cp.finished;
        self.stack.truncate(cp.stack_len);
        self.stack_buf.truncate(cp.stack_buf_len);
        self.pending.truncate(cp.pending_len);
        self.pending_pos = cp.pending_pos;
        self.slot = Slot::None;
        self.defer_consume = 0;
    }

    /// Serialize the complete resumable parse state at a quiescent point
    /// (the last poll returned [`Polled::NeedMoreData`] or [`Polled::End`]).
    ///
    /// What is written: the unconsumed byte window (the tail of an
    /// incomplete construct), the stream offset of that window's start —
    /// which is exactly where a restored reader re-anchors its
    /// [`StructuralIndex`] — the open-element stack with resolved ids, the
    /// parser phase flags, and the per-path telemetry counters. The
    /// structural index itself, the scan hints and all scratch buffers are
    /// *re-derivable caches* and are deliberately not part of the format.
    pub fn state_save(&self, enc: &mut flux_state::Enc) -> Result<(), flux_state::StateError> {
        if self.defer_consume > 0 || matches!(self.slot, Slot::StackPop) {
            return Err(flux_state::StateError::NotQuiescent(
                "reader holds a deferred event borrow",
            ));
        }
        if self.pending_pos < self.pending.len() {
            return Err(flux_state::StateError::NotQuiescent(
                "reader has undelivered pending events",
            ));
        }
        enc.put_bytes(&self.src.buf[self.src.pos..]);
        enc.put_bool(self.src.closed);
        enc.put_uint(self.offset);
        enc.put_bool(self.seen_root);
        enc.put_bool(self.in_tag);
        enc.put_bool(self.finished);
        enc.put_usize(self.stack.len());
        for (i, &(off, id)) in self.stack.iter().enumerate() {
            let end =
                self.stack.get(i + 1).map_or(self.stack_buf.len(), |&(next, _)| next as usize);
            enc.put_uint(u64::from(id.0));
            enc.put_str(&self.stack_buf[off as usize..end]);
        }
        enc.put_uint(self.fast_bytes);
        enc.put_uint(self.general_bytes);
        Ok(())
    }

    /// Rebuild an incremental reader saved by [`Reader::state_save`].
    /// `opts` and `symbols` come from the compiled plan the snapshot was
    /// taken against (the caller has already verified the plan
    /// fingerprint); the structural index re-anchors lazily at the restored
    /// offset on the first poll.
    pub fn state_restore(
        opts: ReaderOptions,
        symbols: Arc<Symbols>,
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<Reader<FeedSource>, flux_state::StateError> {
        let mut r = Reader::incremental_with_symbols(opts, symbols);
        r.src.buf = dec.get_bytes()?.to_vec();
        r.src.closed = dec.get_bool()?;
        r.offset = dec.get_uint()?;
        r.seen_root = dec.get_bool()?;
        r.in_tag = dec.get_bool()?;
        r.finished = dec.get_bool()?;
        let depth = dec.get_count()?;
        for _ in 0..depth {
            let id = u32::try_from(dec.get_uint()?)
                .map_err(|_| flux_state::StateError::Corrupt("NameId exceeds u32"))?;
            let name = dec.get_str()?;
            let off = r.stack_buf.len() as u32;
            r.stack_buf.push_str(name);
            r.stack.push((off, NameId(id)));
        }
        r.fast_bytes = dec.get_uint()?;
        r.general_bytes = dec.get_uint()?;
        Ok(r)
    }
}

/// Validate an XML name (loose check: letters/`_`/`:` then name characters).
/// ASCII names — the overwhelmingly common case — take a byte-wise path.
fn check_name(name: &str) -> Result<(), String> {
    let bytes = name.as_bytes();
    match bytes.first() {
        Some(&b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
        Some(&b) if !b.is_ascii() => return check_name_unicode(name),
        Some(&b) => {
            return Err(format!("invalid name start character `{}` in `{name}`", b as char))
        }
        None => return Err("empty element name".into()),
    }
    for &b in &bytes[1..] {
        if !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')) {
            if !b.is_ascii() {
                return check_name_unicode(name);
            }
            return Err(format!("invalid name character `{}` in `{name}`", b as char));
        }
    }
    Ok(())
}

/// The general (non-ASCII) name check.
fn check_name_unicode(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        Some(c) => return Err(format!("invalid name start character `{c}` in `{name}`")),
        None => return Err("empty element name".into()),
    }
    for c in chars {
        if !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')) {
            return Err(format!("invalid name character `{c}` in `{name}`"));
        }
    }
    Ok(())
}

/// Parse `a="v" b='w'` attribute syntax. Values are entity-decoded.
fn parse_attributes(src: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = src.trim_start();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("expected `=` in attribute list near `{rest}`"))?;
        let name = rest[..eq].trim();
        check_name(name)?;
        let after = rest[eq + 1..].trim_start();
        let quote = after
            .chars()
            .next()
            .filter(|&c| c == '"' || c == '\'')
            .ok_or_else(|| format!("attribute `{name}` value must be quoted"))?;
        let val_rest = &after[1..];
        let end = val_rest
            .find(quote)
            .ok_or_else(|| format!("unterminated value for attribute `{name}`"))?;
        let value = crate::escape::unescape(&val_rest[..end])?;
        out.push((name.to_string(), value.into_owned()));
        rest = val_rest[end + 1..].trim_start();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Vec<OwnedEvent> {
        Reader::from_str(xml).read_to_end().unwrap()
    }

    fn flat(xml: &str) -> String {
        events(xml).iter().map(|e| e.to_string()).collect()
    }

    #[test]
    fn simple_document() {
        assert_eq!(flat("<a><b>hi</b></a>"), "<a><b>hi</b></a>");
    }

    #[test]
    fn whitespace_dropped_by_default() {
        assert_eq!(flat("<a>\n  <b>x</b>\n</a>"), "<a><b>x</b></a>");
    }

    #[test]
    fn whitespace_kept_on_request() {
        let mut r = Reader::new(
            "<a> <b>x</b> </a>".as_bytes(),
            ReaderOptions { keep_whitespace: true, ..Default::default() },
        );
        let evs = r.read_to_end().unwrap();
        assert_eq!(evs.iter().map(|e| e.to_string()).collect::<String>(), "<a> <b>x</b> </a>");
    }

    #[test]
    fn entities_resolved() {
        let evs = events("<a>x &lt; y &amp; z</a>");
        assert_eq!(evs[1], OwnedEvent::Text("x < y & z".into()));
    }

    #[test]
    fn self_closing() {
        assert_eq!(flat("<a><b/></a>"), "<a><b></b></a>");
    }

    #[test]
    fn attributes_converted_to_subelements() {
        assert_eq!(
            flat(r#"<person id="person0"><name>Jo</name></person>"#),
            "<person><person_id>person0</person_id><name>Jo</name></person>"
        );
    }

    #[test]
    fn multiple_attributes_in_order() {
        assert_eq!(
            flat(r#"<item featured="yes" id="item3"/>"#),
            "<item><item_featured>yes</item_featured><item_id>item3</item_id></item>"
        );
    }

    #[test]
    fn attributes_dropped_mode() {
        let mut r = Reader::new(
            r#"<a x="1">t</a>"#.as_bytes(),
            ReaderOptions { attributes: AttributeMode::Drop, ..Default::default() },
        );
        let evs = r.read_to_end().unwrap();
        assert_eq!(evs.iter().map(|e| e.to_string()).collect::<String>(), "<a>t</a>");
    }

    #[test]
    fn attributes_rejected_mode() {
        let mut r = Reader::new(
            r#"<a x="1">t</a>"#.as_bytes(),
            ReaderOptions { attributes: AttributeMode::Reject, ..Default::default() },
        );
        let err = r.read_to_end().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::AttributeRejected { .. }));
    }

    #[test]
    fn prolog_comments_pi_doctype_skipped() {
        let xml = r#"<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><!-- note --><a>x<?pi data?><!-- more --></a>"#;
        assert_eq!(flat(xml), "<a>x</a>");
    }

    #[test]
    fn comment_containing_gt() {
        assert_eq!(flat("<a><!-- x > y --->ok</a>"), "<a>ok</a>");
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let evs = events("<a><![CDATA[1 < 2 & so]]></a>");
        assert_eq!(evs[1], OwnedEvent::Text("1 < 2 & so".into()));
    }

    #[test]
    fn cdata_containing_gt() {
        let evs = events("<a><![CDATA[x > y]]></a>");
        assert_eq!(evs[1], OwnedEvent::Text("x > y".into()));
    }

    #[test]
    fn mismatched_tag_rejected() {
        let err = Reader::from_str("<a><b></a></b>").read_to_end().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn mismatch_reports_expected_open_tag() {
        let err = Reader::from_str("<a><b></c>").read_to_end().unwrap_err();
        match err.kind {
            XmlErrorKind::MismatchedTag { expected, found } => {
                assert_eq!(expected.as_deref(), Some("b"));
                assert_eq!(found, "c");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn truncated_document_rejected() {
        let err = Reader::from_str("<a><b>").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
        let err = Reader::from_str("<a").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_content_rejected() {
        let err = Reader::from_str("<a/><b/>").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TrailingContent);
        let err = Reader::from_str("<a/>junk").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TextOutsideRoot);
    }

    #[test]
    fn text_outside_root_rejected() {
        let err = Reader::from_str("junk<a/>").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TextOutsideRoot);
    }

    #[test]
    fn empty_input_rejected() {
        let err = Reader::from_str("   ").read_to_end().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_entity_reported() {
        let err = Reader::from_str("<a>&bogus;</a>").read_to_end().unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::Syntax(_)));
    }

    #[test]
    fn bad_names_reported() {
        assert!(Reader::from_str("<1a/>").read_to_end().is_err());
        assert!(Reader::from_str("<a b c/>").read_to_end().is_err());
        assert!(Reader::from_str("<a></1a>").read_to_end().is_err());
    }

    #[test]
    fn unicode_names_accepted() {
        assert_eq!(flat("<多><é>x</é></多>"), "<多><é>x</é></多>");
    }

    #[test]
    fn depth_and_offset_track() {
        let mut r = Reader::from_str("<a><b>x</b></a>");
        assert_eq!(r.depth(), 0);
        r.next_event().unwrap(); // <a>
        assert_eq!(r.depth(), 1);
        r.next_event().unwrap(); // <b>
        assert_eq!(r.depth(), 2);
        assert!(r.offset() > 0);
    }

    #[test]
    fn deeply_nested() {
        let mut xml = String::new();
        for i in 0..200 {
            xml.push_str(&format!("<e{i}>"));
        }
        for i in (0..200).rev() {
            xml.push_str(&format!("</e{i}>"));
        }
        let evs = events(&xml);
        assert_eq!(evs.len(), 400);
    }

    #[test]
    fn single_quoted_attributes() {
        assert_eq!(flat("<a k='v'/>"), "<a><a_k>v</a_k></a>");
    }

    #[test]
    fn attribute_value_entities() {
        assert_eq!(flat(r#"<a k="x &amp; y"/>"#), "<a><a_k>x &amp; y</a_k></a>");
    }

    fn bib_symbols() -> Arc<Symbols> {
        let mut s = Symbols::new();
        for n in ["bib", "book", "title", "book_id"] {
            s.intern(n);
        }
        Arc::new(s)
    }

    #[test]
    fn resolved_ids_match_the_table() {
        let syms = bib_symbols();
        let doc = "<bib><book><title>T</title><zzz>u</zzz></book></bib>";
        let mut r = Reader::with_symbols(doc.as_bytes(), ReaderOptions::default(), syms.clone());
        let mut seen = Vec::new();
        while let Some(ev) = r.next_resolved().unwrap() {
            if let ResolvedEvent::Start(id, name) | ResolvedEvent::End(id, name) = ev {
                seen.push((id, name.to_string()));
            }
        }
        assert_eq!(seen[0], (syms.resolve("bib"), "bib".to_string()));
        assert_eq!(seen[1], (syms.resolve("book"), "book".to_string()));
        assert_eq!(seen[2], (syms.resolve("title"), "title".to_string()));
        // End ids come from the stack, not a re-hash; they must agree.
        assert_eq!(seen[3], (syms.resolve("title"), "title".to_string()));
        // Out-of-vocabulary names resolve to UNKNOWN but keep their text.
        assert_eq!(seen[4], (NameId::UNKNOWN, "zzz".to_string()));
        assert_eq!(seen[5], (NameId::UNKNOWN, "zzz".to_string()));
        assert!(seen[4].0.is_unknown());
    }

    #[test]
    fn resolved_ids_flow_through_attribute_conversion() {
        let syms = bib_symbols();
        let doc = r#"<bib><book id="b1"/></bib>"#;
        let mut r = Reader::with_symbols(doc.as_bytes(), ReaderOptions::default(), syms.clone());
        let mut starts = Vec::new();
        while let Some(ev) = r.next_resolved().unwrap() {
            if let ResolvedEvent::Start(id, name) = ev {
                starts.push((id, name.to_string()));
            }
        }
        assert_eq!(starts[1], (syms.resolve("book"), "book".to_string()));
        assert_eq!(starts[2], (syms.resolve("book_id"), "book_id".to_string()));
    }

    #[test]
    fn reader_without_symbols_resolves_unknown() {
        let mut r = Reader::from_str("<a>x</a>");
        match r.next_resolved().unwrap().unwrap() {
            ResolvedEvent::Start(id, "a") => assert!(id.is_unknown()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attributed_tags_fast_and_slow_paths_agree() {
        // The attribute fast path must produce the identical event stream
        // to the accumulating path (exercised via 1-byte read windows).
        let docs = [
            r#"<a k="v">t</a>"#,
            r#"<a k="v"/>"#,
            r#"<a k = 'v' l="w"  />"#,
            r#"<a  >x</a>"#,
            r#"<item featured="yes" id="item3"><x y=""/></item>"#,
            r#"<a k="x &amp; y">t</a>"#,
            r#"<a k="köln">t</a>"#,
        ];
        for doc in docs {
            let fast = Reader::from_str(doc).read_to_end().unwrap();
            let slow = Reader::new(
                std::io::BufReader::with_capacity(1, doc.as_bytes()),
                ReaderOptions::default(),
            )
            .read_to_end()
            .unwrap();
            assert_eq!(fast, slow, "doc: {doc}");
        }
    }

    #[test]
    fn attributed_tag_errors_agree_between_paths() {
        // `<a k="a>b">` is here deliberately: both paths truncate the tag at
        // the first `>` (pre-existing contract) and report it unterminated.
        for doc in [
            r#"<a k=v>t</a>"#,
            r#"<a k>t</a>"#,
            r#"<a 1k="v"/>"#,
            r#"<a k="v>more text"#,
            r#"<a k="a>b">t</a>"#,
        ] {
            let fast = Reader::from_str(doc).read_to_end().unwrap_err();
            let slow = Reader::new(
                std::io::BufReader::with_capacity(1, doc.as_bytes()),
                ReaderOptions::default(),
            )
            .read_to_end()
            .unwrap_err();
            assert_eq!(fast, slow, "doc: {doc}");
        }
    }

    /// Drive an incremental reader over `doc` split into `chunks`, closing
    /// after the last one.
    fn poll_all(doc: &str, chunks: &[&[u8]]) -> Result<Vec<OwnedEvent>, XmlError> {
        let mut r = Reader::incremental(ReaderOptions::default());
        let mut out = Vec::new();
        let mut next = 0usize;
        loop {
            match r.poll_resolved()? {
                Polled::Event(ev) => out.push(ev.to_event().to_owned()),
                Polled::NeedMoreData => {
                    if next < chunks.len() {
                        r.feed(chunks[next]);
                        next += 1;
                    } else {
                        assert!(!r.is_closed(), "closed reader must not ask for more data");
                        r.close();
                    }
                }
                Polled::End => break,
            }
        }
        assert_eq!(r.offset(), doc.len() as u64);
        Ok(out)
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        // Constructs that stress rollback: tags, attributes, entities,
        // comments (with `>`), CDATA, DOCTYPE, PIs, unicode names and
        // multi-byte text, self-closing tags, whitespace runs.
        let docs = [
            "<a><b>hi</b></a>",
            r#"<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x<?pi d?><!-- c > d --->y</a>"#,
            r#"<person id="person0"><name>Jo &amp; Bo</name><多>é</多></person>"#,
            "<a><![CDATA[1 < 2 & x > y]]></a>",
            "<a>\n  <b k='v' l=\"w\"/>tail</a>",
            "  <a>täxt</a>  ",
        ];
        for doc in docs {
            let reference = Reader::from_str(doc).read_to_end().unwrap();
            for at in 0..=doc.len() {
                let (head, tail) = doc.as_bytes().split_at(at);
                let got = poll_all(doc, &[head, tail])
                    .unwrap_or_else(|e| panic!("split {at} of {doc}: {e}"));
                assert_eq!(got, reference, "split {at} of {doc}");
            }
            // And fully byte-at-a-time.
            let bytes: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
            assert_eq!(poll_all(doc, &bytes).unwrap(), reference, "byte-at-a-time {doc}");
        }
    }

    #[test]
    fn incremental_errors_match_one_shot_at_every_split() {
        let docs =
            ["<a><b></a></b>", "<a>&bogus;</a>", "<a/>junk", "junk<a/>", "<a/><b/>", "<a k=v/>"];
        for doc in docs {
            let reference = Reader::from_str(doc).read_to_end().unwrap_err();
            for at in 0..=doc.len() {
                let (head, tail) = doc.as_bytes().split_at(at);
                let err = poll_all(doc, &[head, tail]).expect_err("must fail");
                assert_eq!(err, reference, "split {at} of {doc}");
            }
        }
    }

    #[test]
    fn incremental_truncation_errors_only_after_close() {
        let mut r = Reader::incremental(ReaderOptions::default());
        r.feed(b"<a><b>");
        assert_eq!(
            r.poll_resolved().unwrap(),
            Polled::Event(ResolvedEvent::Start(NameId::UNKNOWN, "a"))
        );
        assert_eq!(
            r.poll_resolved().unwrap(),
            Polled::Event(ResolvedEvent::Start(NameId::UNKNOWN, "b"))
        );
        // Mid-document: not an error yet, just hungry.
        assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
        assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
        r.close();
        let err = r.poll_resolved().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn fragmented_text_is_not_rescanned_quadratically() {
        // A long text run fed in many tiny chunks: the scan-position hint
        // must cover the whole fed window after every poll, so the next
        // poll scans only the bytes it has not seen — without the hint each
        // poll re-scans (and re-copies) the run from its start, O(n²).
        let mut r = Reader::incremental(ReaderOptions::default());
        r.feed(b"<a>");
        assert!(matches!(r.poll_resolved().unwrap(), Polled::Event(ResolvedEvent::Start(..))));
        assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
        let chunk = [b'x'; 64];
        let chunks = 512usize;
        for _ in 0..chunks {
            r.feed(&chunk);
            assert_eq!(r.poll_resolved().unwrap(), Polled::NeedMoreData);
            assert_eq!(r.src.lt_scanned, r.src.buf.len(), "hint covers the fed window");
        }
        r.feed(b"</a>");
        match r.poll_resolved().unwrap() {
            Polled::Event(ResolvedEvent::Text(t)) => {
                assert_eq!(t.len(), chunks * chunk.len());
                assert!(t.bytes().all(|b| b == b'x'));
            }
            other => panic!("expected the completed text run, got {other:?}"),
        }
        assert!(matches!(r.poll_resolved().unwrap(), Polled::Event(ResolvedEvent::End(..))));
        r.close();
        assert_eq!(r.poll_resolved().unwrap(), Polled::End);
    }

    #[test]
    fn scan_hint_survives_interleaved_tags_and_rollbacks() {
        // The hint is a pure memo over buffer content: tags completing,
        // checkpoint rollbacks and buffer reclaims in between must never
        // make it skip a `<` or corrupt an event. Byte-at-a-time feeding of
        // a tag-and-text mix exercises every interleaving.
        let doc = "<a>alpha<b>beta</b>gamma &amp; delta<c/>  tail</a>";
        let reference = Reader::from_str(doc).read_to_end().unwrap();
        let bytes: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
        assert_eq!(poll_all(doc, &bytes).unwrap(), reference);
    }

    #[test]
    fn incremental_reclaims_consumed_bytes() {
        let mut r = Reader::incremental(ReaderOptions::default());
        r.feed(b"<a>");
        while let Polled::Event(_) = r.poll_resolved().unwrap() {}
        for _ in 0..1000 {
            r.feed(b"<b>x</b>");
            while let Polled::Event(_) = r.poll_resolved().unwrap() {}
        }
        // Only the unparsed tail is retained, not the whole stream.
        assert!(r.unconsumed_bytes() < 16, "retained {}", r.unconsumed_bytes());
    }
}
