//! Runtime buffers: recording slivers of the stream into trees.
//!
//! A [`Recorder`] follows its scope's compiled [`RtTree`] as events stream
//! by. Nodes are attached to the buffer *eagerly* (on their start event), so
//! the buffer is a well-formed tree at every instant — XQuery−
//! subexpressions can be evaluated against it mid-stream, which is exactly
//! what safety licenses. Interior (unmarked) nodes store tags only; marked
//! nodes store their whole subtrees; everything else is skipped.
//!
//! Cursor navigation is by interned [`NameId`]: the per-event decision is a
//! scan over a short id array compiled at prepare time — no string
//! comparison, hashing or path splitting per document. Out-of-vocabulary
//! events (UNKNOWN) can never match a compiled child and are skipped, like
//! any other name that is not in the tree.
//!
//! The recorder holds no borrow of the plan — its tree cursor is a stack of
//! `u32` node handles, and each observation takes the scope's [`RtTree`] as
//! an argument. That keeps the engine's resumable execution state
//! (`Pump`) a plain owned value that can live across `feed` calls.
//!
//! Buffered bytes are charged to the run's memory accounting with the
//! events-list metric (tag names twice, text once) and released when the
//! scope instance ends. The recorder itself only *reports* deltas (the
//! return values of [`Recorder::on_start`] / [`Recorder::on_text`]); the
//! executor routes them through the run's `Budget` — the per-run
//! `max_buffer_bytes` limit plus the pluggable fleet-wide
//! [`BudgetHook`](crate::BudgetHook) an admission controller installs.

use flux_xml::{NameId, Node};

use crate::bufplan::RtTree;

/// What the recorder is doing at one open-element level.
#[derive(Debug, Clone, Copy)]
enum RecFrame {
    /// Following an unmarked buffer-tree node (tags recorded, text skipped).
    Follow(u32),
    /// Inside a marked subtree: record everything.
    Capture,
    /// Not recorded.
    Skip,
}

/// Per-scope-instance recording state.
#[derive(Debug)]
pub struct Recorder {
    /// The buffer: rooted at the scope element.
    root: Node,
    frames: Vec<RecFrame>,
    /// Child indices of the open recorded chain (for cursor navigation).
    open_path: Vec<usize>,
    /// Bytes charged for this buffer so far.
    bytes: usize,
}

impl Recorder {
    /// Create a recorder for one scope instance.
    pub fn new(scope_elem: &str) -> Recorder {
        Recorder {
            root: Node::new(scope_elem),
            frames: Vec::new(),
            open_path: Vec::new(),
            bytes: 0,
        }
    }

    /// The buffer contents (always a well-formed tree).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Bytes currently charged for this buffer.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Is the most recently opened element being recorded? The executor
    /// calls this right after a child's start event was dispatched, to
    /// decide whether the child may stream through or must be captured.
    pub fn is_recording(&self) -> bool {
        matches!(self.frames.last(), Some(RecFrame::Capture | RecFrame::Follow(_)))
    }

    /// Is the most recently opened element skipped? Then nothing below it
    /// is recorded either: every deeper level is skipped too.
    pub(crate) fn is_skipping(&self) -> bool {
        matches!(self.frames.last(), Some(RecFrame::Skip))
    }

    /// Move from `from` to `to` skipped levels below the current element
    /// without observing the events in between — what a run of events
    /// inside a skipped element would have done to the cursor.
    pub(crate) fn shift_skip(&mut self, from: u32, to: u32) {
        if to >= from {
            self.frames.extend((from..to).map(|_| RecFrame::Skip));
        } else {
            let keep = self.frames.len().saturating_sub((from - to) as usize);
            debug_assert!(
                self.frames[keep..].iter().all(|f| matches!(f, RecFrame::Skip)),
                "only skipped levels are shifted"
            );
            self.frames.truncate(keep);
        }
    }

    /// Would a child with this (interned) label be (partly) recorded right
    /// now? Used by the executor to decide whether a handled child must be
    /// captured rather than streamed.
    pub fn would_record(&self, tree: &RtTree, id: NameId) -> bool {
        match self.frames.last() {
            Some(RecFrame::Capture) => true,
            Some(RecFrame::Skip) => false,
            Some(RecFrame::Follow(n)) => tree.child(*n, id).is_some(),
            None => tree.marked(RtTree::ROOT) || tree.child(RtTree::ROOT, id).is_some(),
        }
    }

    fn cursor(&mut self) -> &mut Node {
        let mut n = &mut self.root;
        for &i in &self.open_path {
            n = match &mut n.children[i] {
                flux_xml::Child::Elem(e) => e,
                flux_xml::Child::Text(_) => unreachable!("open chain is elements"),
            };
        }
        n
    }

    /// Start-element event inside the scope; returns bytes newly charged.
    pub fn on_start(&mut self, tree: &RtTree, id: NameId, name: &str) -> usize {
        let follow = |node: u32| match tree.child(node, id) {
            Some(c) if tree.marked(c) => RecFrame::Capture,
            Some(c) => RecFrame::Follow(c),
            None => RecFrame::Skip,
        };
        let action = match self.frames.last() {
            Some(RecFrame::Skip) => RecFrame::Skip,
            Some(RecFrame::Capture) => RecFrame::Capture,
            Some(RecFrame::Follow(n)) => follow(*n),
            None => {
                if tree.marked(RtTree::ROOT) {
                    RecFrame::Capture
                } else {
                    follow(RtTree::ROOT)
                }
            }
        };
        let grew = match action {
            RecFrame::Skip => 0,
            RecFrame::Capture | RecFrame::Follow(_) => {
                let parent = self.cursor();
                parent.push_elem(name);
                let idx = parent.children.len() - 1;
                self.open_path.push(idx);
                2 * name.len()
            }
        };
        self.frames.push(action);
        self.bytes += grew;
        grew
    }

    /// Character data inside the scope; returns bytes newly charged.
    pub fn on_text(&mut self, tree: &RtTree, text: &str) -> usize {
        let capture = match self.frames.last() {
            Some(RecFrame::Capture) => true,
            None => tree.marked(RtTree::ROOT), // text directly under a marked scope
            _ => false,
        };
        if capture {
            self.cursor().push_text(text);
            self.bytes += text.len();
            text.len()
        } else {
            0
        }
    }

    /// Serialize the recording state (buffer tree + cursor) for a session
    /// snapshot. The open chain (`open_path`) and per-level actions
    /// (`frames`) must survive: a scope can be snapshotted while elements
    /// are still open inside it.
    pub(crate) fn state_save(&self, enc: &mut flux_state::Enc) {
        self.root.state_save(enc);
        enc.put_usize(self.frames.len());
        for f in &self.frames {
            match f {
                RecFrame::Follow(n) => {
                    enc.put_u8(0);
                    enc.put_uint(u64::from(*n));
                }
                RecFrame::Capture => enc.put_u8(1),
                RecFrame::Skip => enc.put_u8(2),
            }
        }
        enc.put_usize(self.open_path.len());
        for &i in &self.open_path {
            enc.put_usize(i);
        }
        enc.put_usize(self.bytes);
    }

    /// Rebuild a recorder saved by [`Recorder::state_save`].
    pub(crate) fn state_load(
        dec: &mut flux_state::Dec<'_>,
    ) -> Result<Recorder, flux_state::StateError> {
        use flux_state::StateError;
        let root = Node::state_load(dec)?;
        let nframes = dec.get_count()?;
        let mut frames = Vec::with_capacity(nframes);
        for _ in 0..nframes {
            frames.push(match dec.get_u8()? {
                0 => RecFrame::Follow(
                    u32::try_from(dec.get_uint()?)
                        .map_err(|_| StateError::Corrupt("recorder node handle exceeds u32"))?,
                ),
                1 => RecFrame::Capture,
                2 => RecFrame::Skip,
                _ => return Err(StateError::Corrupt("unknown recorder frame kind")),
            });
        }
        let npath = dec.get_count()?;
        let mut open_path = Vec::with_capacity(npath);
        for _ in 0..npath {
            open_path.push(dec.get_usize()?);
        }
        let bytes = dec.get_usize()?;
        let rec = Recorder { root, frames, open_path, bytes };
        // The open chain must address elements in the rebuilt tree, or
        // cursor navigation would panic on the next event.
        let mut n = &rec.root;
        for &i in &rec.open_path {
            n = match n.children.get(i) {
                Some(flux_xml::Child::Elem(e)) => e,
                _ => return Err(StateError::Corrupt("recorder open chain escapes the buffer")),
            };
        }
        Ok(rec)
    }

    /// End-element event inside the scope.
    pub fn on_end(&mut self) {
        match self.frames.pop() {
            Some(RecFrame::Skip) | None => {}
            Some(RecFrame::Capture | RecFrame::Follow(_)) => {
                self.open_path.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufplan::BufferTree;
    use flux_xml::{Reader, ReaderOptions, ResolvedEvent, Symbols};
    use std::sync::Arc;

    /// Compile a tree from `path → marked` pairs (splitting happens here,
    /// at "compile time" — the recorder only ever sees interned ids).
    fn tree(paths: &[(&str, bool)]) -> (RtTree, Arc<Symbols>) {
        let mut t = BufferTree::default();
        for (p, marked) in paths {
            let steps: Vec<String> = p.split('/').map(str::to_string).collect();
            t.insert(&steps, *marked);
        }
        t.prune();
        let mut symbols = Symbols::new();
        let rt = t.compile(&mut symbols);
        (rt, Arc::new(symbols))
    }

    /// Feed the children of `<scope>…</scope>` through a recorder.
    fn record_with(tree: &RtTree, symbols: Arc<Symbols>, content: &str) -> (Node, usize) {
        let xml = format!("<scope>{content}</scope>");
        let mut r = Reader::with_symbols(xml.as_bytes(), ReaderOptions::default(), symbols);
        let mut rec = Recorder::new("scope");
        let mut depth = 0;
        while let Some(ev) = r.next_resolved().unwrap() {
            match ev {
                ResolvedEvent::Start(id, n) => {
                    depth += 1;
                    if depth > 1 {
                        rec.on_start(tree, id, n);
                    }
                }
                ResolvedEvent::Text(t) => {
                    if depth >= 1 {
                        rec.on_text(tree, t);
                    }
                }
                ResolvedEvent::End(..) => {
                    if depth > 1 {
                        rec.on_end();
                    }
                    depth -= 1;
                }
            }
        }
        let bytes = rec.bytes();
        (rec.root, bytes)
    }

    fn record(paths: &[(&str, bool)], content: &str) -> (Node, usize) {
        let (t, s) = tree(paths);
        record_with(&t, s, content)
    }

    #[test]
    fn marked_child_records_whole_subtree() {
        let (root, bytes) =
            record(&[("author", true)], "<title>T</title><author>A<em>!</em></author>");
        assert_eq!(root.to_xml(), "<scope><author>A<em>!</em></author></scope>");
        // author ×2 + em ×2 + "A" + "!"
        assert_eq!(bytes, 12 + 4 + 2);
    }

    #[test]
    fn interior_nodes_record_tags_only() {
        let (root, _) = record(
            &[("book/editor", true)],
            "<book><title>skip me</title><editor>E</editor></book><junk>j</junk>",
        );
        assert_eq!(root.to_xml(), "<scope><book><editor>E</editor></book></scope>");
    }

    #[test]
    fn marked_root_captures_everything() {
        let mut t = BufferTree::default();
        t.insert(&[], true);
        let mut symbols = Symbols::new();
        let rt = t.compile(&mut symbols);
        let (root, bytes) = record_with(&rt, Arc::new(symbols), "x<多/>y");
        assert_eq!(root.to_xml(), "<scope>x<多></多>y</scope>");
        assert_eq!(bytes, 2 + "多".len() * 2);
    }

    #[test]
    fn tags_only_for_unmarked_leaves() {
        let (root, bytes) = record(&[("a", false)], "<a>value ignored<b>deep</b></a><a>two</a>");
        assert_eq!(root.to_xml(), "<scope><a></a><a></a></scope>");
        assert_eq!(bytes, 4);
    }

    #[test]
    fn repeated_and_nested_matches() {
        let (root, _) = record(
            &[("book/editor", true), ("book/title", false)],
            "<book><title>t1</title><editor>E1</editor></book>\
             <book><editor>E2</editor><editor>E3</editor></book>",
        );
        assert_eq!(
            root.to_xml(),
            "<scope><book><title></title><editor>E1</editor></book>\
             <book><editor>E2</editor><editor>E3</editor></book></scope>"
        );
    }

    #[test]
    fn would_record_reflects_cursor() {
        let (t, symbols) = tree(&[("book/editor", true)]);
        let id = |n: &str| symbols.resolve(n);
        let mut rec = Recorder::new("scope");
        assert!(rec.would_record(&t, id("book")));
        assert!(!rec.would_record(&t, id("article")));
        rec.on_start(&t, id("book"), "book");
        assert!(rec.would_record(&t, id("editor")));
        assert!(!rec.would_record(&t, id("title")));
        rec.on_start(&t, id("editor"), "editor");
        assert!(rec.would_record(&t, id("anything")), "inside a capture everything records");
        rec.on_end();
        rec.on_end();
        assert!(rec.would_record(&t, id("book")));
    }

    #[test]
    fn unknown_names_are_skipped_not_confused() {
        // An out-of-vocabulary element (UNKNOWN id) must neither record nor
        // derail the cursor for later in-vocabulary siblings.
        let (root, _) = record(&[("book", true)], "<zzz>skip</zzz><book>B</book>");
        assert_eq!(root.to_xml(), "<scope><book>B</book></scope>");
    }

    #[test]
    fn partial_buffer_is_well_formed_mid_stream() {
        let (t, symbols) = tree(&[("a/b", true)]);
        let id = |n: &str| symbols.resolve(n);
        let mut rec = Recorder::new("s");
        rec.on_start(&t, id("a"), "a");
        rec.on_start(&t, id("b"), "b");
        rec.on_text(&t, "x");
        // Mid-stream, before any end events: the buffer is already a valid
        // tree containing the partially read data.
        assert_eq!(rec.root().to_xml(), "<s><a><b>x</b></a></s>");
    }
}
