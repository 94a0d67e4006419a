"""A struct-of-arrays columnar encoding of an XML document.

:class:`ColumnarDocument` stores one document as parallel preorder
columns instead of one Python object per element:

* ``labels`` — interned label ids into ``label_table``;
* ``size`` / ``parent_gap`` / ``level`` — ``array('i')`` structure
  columns: the subtree size (self included), the distance back to the
  parent (``i - parent``; the root holds 1, so its parent reads -1), and
  the root distance.  Every entry is relative to its own row, so a
  splice rewrites only its ancestors' sizes and the gaps of their
  children past it (:mod:`repro.update.columnar`);
* ``parent`` / ``first_child`` / ``next_sibling`` / ``post`` — the
  absolute links and post-order ranks of the *pre/post/level* interval
  encoding, available per row in O(1) (:meth:`ColumnarDocument.
  parent_of` and friends) and as lazily derived, cached columns for
  bulk readers such as the interval join engine of
  :mod:`repro.query.interval`.  A mutation drops the caches;
* ``path_ids`` — interned root-to-element label-path ids; the path table
  itself is columnar (``path_parent`` / ``path_label``), so a document
  with millions of elements stores each distinct path once;
* ``value_kind`` / ``value_ref`` — per-element value type codes and
  references into the typed value stores (``array('q')`` numerics with
  an overflow dict for big ints, a string list, and a term store that
  interns every distinct text term once in ``term_table`` and keeps
  per-element term-id runs in first-occurrence order).

Documents are built in one pass from the event stream of
:mod:`repro.xmltree.events` (:func:`ingest_string` / :func:`ingest_file`
— the streaming path never materializes the source or a node tree), or
converted from/to the object model with :func:`freeze` and
:func:`thaw`.

Typing semantics are identical to the tree parser: attributes become
``@name`` children with raw STRING values, and element character data
flows through the same ``_typed_value`` heuristic — so
``thaw(ingest_string(x))`` equals ``parse_string(x)`` element for
element, which ``tests/test_columnar.py`` pins down.
"""

from __future__ import annotations

from array import array
from operator import add, sub
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.xmltree.events import (
    ATTR,
    DEFAULT_CHUNK_SIZE,
    END,
    START,
    TEXT,
    XMLEvent,
    iter_events,
)
from repro.xmltree.types import (
    DEFAULT_TEXT_WORD_THRESHOLD,
    ElementValue,
    TypeKey,
    ValueType,
    _typed_value,
    tokenize_text_ordered,
)

if TYPE_CHECKING:
    # The object model loads only where a document crosses to or from it
    # (``thaw``), not on the streaming ingest path.
    from repro.xmltree.tree import XMLElement, XMLTree

#: ``value_kind`` codes, aligned with :data:`KIND_TO_TYPE`.
KIND_NULL = 0
KIND_NUMERIC = 1
KIND_STRING = 2
KIND_TEXT = 3

#: kind code -> :class:`ValueType` (position-aligned).
KIND_TO_TYPE = (
    ValueType.NULL,
    ValueType.NUMERIC,
    ValueType.STRING,
    ValueType.TEXT,
)

#: :class:`ValueType` -> kind code.
TYPE_TO_KIND = {vtype: kind for kind, vtype in enumerate(KIND_TO_TYPE)}

#: Signed 64-bit bounds of the ``array('q')`` numeric column; values
#: outside it go to the overflow dict (Python ints are unbounded).
_Q_MIN = -(1 << 63)
_Q_MAX = (1 << 63) - 1


class ColumnarDocument:
    """One XML document as parallel preorder columns (see module doc)."""

    __slots__ = (
        "label_table",
        "label_index",
        "labels",
        "size",
        "parent_gap",
        "level",
        "_derived",
        "path_ids",
        "path_parent",
        "path_label",
        "_path_index",
        "_path_tuples",
        "value_kind",
        "value_ref",
        "numeric_values",
        "numeric_overflow",
        "string_values",
        "text_values",
        "term_table",
        "term_index",
        "rows_relinked",
    )

    def __init__(self) -> None:
        #: Distinct labels in first-occurrence order; ``labels`` indexes it.
        self.label_table: List[str] = []
        self.label_index: Dict[str, int] = {}
        self.labels = array("i")
        #: Subtree size (self included), distance back to the parent
        #: (the root holds 1) and root distance per element.  The
        #: subtree of ``i`` is exactly ``range(i, i + size[i])``.
        self.size = array("i")
        self.parent_gap = array("i")
        self.level = array("i")
        #: Lazily derived bulk columns by name (:meth:`_derive`),
        #: dropped by every mutation (:meth:`drop_derived`).
        self._derived: Dict[str, object] = {}
        #: Per-element interned path ids; the path table is itself
        #: columnar: ``path_parent[p]`` is the path id of the prefix and
        #: ``path_label[p]`` the last label id (-1 parent for roots).
        #: Append-only, so its intern map lives as long as the document.
        self.path_ids = array("i")
        self.path_parent = array("i")
        self.path_label = array("i")
        self._path_index: Dict[Tuple[int, int], int] = {}
        self._path_tuples: Dict[int, Tuple[str, ...]] = {}
        self.value_kind = array("b")
        self.value_ref = array("i")
        self.numeric_values = array("q")
        self.numeric_overflow: Dict[int, int] = {}
        self.string_values: List[str] = []
        #: Per-TEXT-element term sets.  Streamed values are stored as
        #: term-id tuples in first-occurrence order (ids into
        #: ``term_table``, one string per distinct term document-wide);
        #: frozen values keep their original frozensets verbatim, since
        #: their construction order is no longer recoverable and term-id
        #: interning downstream is sensitive to set layout.
        self.text_values: List = []
        self.term_table: List[str] = []
        self.term_index: Dict[str, int] = {}
        #: ``size``/``parent_gap`` entries rewritten by splices (outside
        #: the spliced rows themselves): the work counter of updates.
        self.rows_relinked = 0

    # -- interning ---------------------------------------------------------

    def _label_id(self, label: str) -> int:
        lid = self.label_index.get(label)
        if lid is None:
            lid = len(self.label_table)
            self.label_index[label] = lid
            self.label_table.append(label)
        return lid

    def _path_id(self, parent_path_id: int, label_id: int) -> int:
        key = (parent_path_id, label_id)
        pid = self._path_index.get(key)
        if pid is None:
            pid = self._path_index[key] = len(self.path_parent)
            self.path_parent.append(parent_path_id)
            self.path_label.append(label_id)
        return pid

    # -- per-element accessors ---------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def label(self, index: int) -> str:
        """The tag of element ``index``."""
        return self.label_table[self.labels[index]]

    def value_type(self, index: int) -> ValueType:
        """The :class:`ValueType` of element ``index``."""
        return KIND_TO_TYPE[self.value_kind[index]]

    def value(self, index: int) -> ElementValue:
        """The typed value of element ``index`` (``None`` when NULL)."""
        kind = self.value_kind[index]
        if kind == KIND_NULL:
            return None
        ref = self.value_ref[index]
        if kind == KIND_NUMERIC:
            overflow = self.numeric_overflow.get(ref)
            return overflow if overflow is not None else self.numeric_values[ref]
        if kind == KIND_STRING:
            return self.string_values[ref]
        stored = self.text_values[ref]
        if type(stored) is not tuple:
            return stored
        # Rebuild through the same set-insertion sequence tokenize_text
        # used, so the frozenset layout (and thus downstream term-id
        # interning order) matches the object parser's bit for bit.
        table = self.term_table
        terms = set()
        for term_id in stored:
            terms.add(table[term_id])
        return frozenset(terms)

    def path_tuple(self, path_id: int) -> Tuple[str, ...]:
        """The label tuple of one interned path id (memoized)."""
        known = self._path_tuples.get(path_id)
        if known is not None:
            return known
        pending = []
        pid = path_id
        while pid >= 0 and pid not in self._path_tuples:
            pending.append(pid)
            pid = self.path_parent[pid]
        prefix = self._path_tuples[pid] if pid >= 0 else ()
        for pid in reversed(pending):
            prefix = prefix + (self.label_table[self.path_label[pid]],)
            self._path_tuples[pid] = prefix
        return self._path_tuples[path_id]

    def label_path(self, index: int) -> Tuple[str, ...]:
        """The root-to-element label path of element ``index``."""
        return self.path_tuple(self.path_ids[index])

    def parent_of(self, index: int) -> int:
        """The parent row of element ``index`` (-1 at the root)."""
        return index - self.parent_gap[index]

    def first_child_of(self, index: int) -> int:
        """The first child row of element ``index``, or -1 for a leaf."""
        return index + 1 if self.size[index] > 1 else -1

    def next_sibling_of(self, index: int) -> int:
        """The next sibling row of element ``index``, or -1 for a last child."""
        sibling = index + self.size[index]
        parent = index - self.parent_gap[index]
        return sibling if parent >= 0 and sibling < parent + self.size[parent] else -1

    def post_of(self, index: int) -> int:
        """The post-order rank of element ``index``: the rows that close
        before it are its descendants and every earlier row but its
        ``level`` ancestors."""
        return index + self.size[index] - 1 - self.level[index]

    def subtree_end(self, index: int) -> int:
        """One past the last preorder index of the subtree at ``index``.

        Preorder layout makes every subtree a contiguous index range:
        the subtree of ``index`` is exactly ``range(index,
        subtree_end(index))``.
        """
        return index + self.size[index]

    def children(self, index: int) -> Iterator[int]:
        """Child indexes of element ``index`` in document order."""
        size = self.size
        end = index + size[index]
        child = index + 1
        while child < end:
            yield child
            child += size[child]

    def is_descendant(self, index: int, ancestor: int) -> bool:
        """Whether ``index`` lies in the proper subtree of ``ancestor``.

        Two integer comparisons over the subtree range — no pointer
        chasing, O(1).
        """
        return ancestor < index < ancestor + self.size[ancestor]

    # -- derived bulk columns ----------------------------------------------

    def _derive(self, name: str):
        """Compute one bulk column from the stored ones (see
        :meth:`_cached`).  The per-row accessors define every value;
        ``parent`` and ``subtree_ends``, which builds and the interval
        engine read, are mapped in C."""
        rows = range(len(self.labels))
        if name == "parent":
            return array("i", map(sub, rows, self.parent_gap))
        if name == "subtree_ends":
            return array("i", map(add, rows, self.size))
        if name == "label_positions":
            positions = [array("i") for _ in self.label_table]
            appends = [column.append for column in positions]
            for index, label_id in enumerate(self.labels):
                appends[label_id](index)
            return positions
        accessor = getattr(self, name + "_of")
        return array("i", map(accessor, rows))

    def _cached(self, name: str):
        column = self._derived.get(name)
        if column is None:
            column = self._derived[name] = self._derive(name)
        return column

    def drop_derived(self) -> None:
        """Forget the derived columns; a mutation calls this, since they
        are keyed by preorder index and label id.  The path-tuple memo
        survives: the path table is append-only."""
        self._derived.clear()

    parent = property(
        lambda self: self._cached("parent"),
        doc="Parent index per element (-1 at the root), derived and cached.",
    )
    first_child = property(
        lambda self: self._cached("first_child"),
        doc="First-child index per element (-1 for leaves), derived and cached.",
    )
    next_sibling = property(
        lambda self: self._cached("next_sibling"),
        doc="Next-sibling index per element (-1 for last children), "
        "derived and cached.",
    )
    post = property(
        lambda self: self._cached("post"),
        doc="Post-order rank per element, derived and cached.  With the "
        "preorder index and ``level`` it forms the pre/post interval "
        "encoding: ``d`` is in the subtree of ``a`` iff ``a <= d`` and "
        "``post[d] <= post[a]``.",
    )

    def subtree_ends(self) -> array:
        """The subtree-end column: ``ends[i]`` is one past the last
        preorder index of the subtree at ``i``.

        The subtree of ``i`` is exactly ``range(i, ends[i])``, so
        bisecting a sorted preorder array against ``(i, ends[i])``
        yields the descendant window of ``i``.  Derived in one C-level
        pass over ``size`` and cached until the next mutation.
        """
        return self._cached("subtree_ends")

    def label_positions(self) -> List[array]:
        """Per-label sorted preorder index arrays (cached).

        ``label_positions()[label_id]`` holds the preorder indexes of
        every element tagged ``label_table[label_id]``, ascending — the
        accelerator relation the interval join engine bisects its
        descendant windows into.  Built in one pass over ``labels``.
        """
        return self._cached("label_positions")

    # -- document-level helpers --------------------------------------------

    def value_paths(self) -> List[Tuple[str, ...]]:
        """Sorted distinct label paths of valued elements.

        Matches :meth:`repro.xmltree.tree.XMLTree.value_paths` on the
        equivalent object tree.
        """
        valued_pids = set()
        kinds = self.value_kind
        pids = self.path_ids
        for index in range(len(kinds)):
            if kinds[index] != KIND_NULL:
                valued_pids.add(pids[index])
        return sorted(self.path_tuple(pid) for pid in valued_pids)

    def nbytes(self) -> int:
        """Approximate resident bytes of the columns (diagnostics)."""
        total = 0
        for column in (
            self.labels,
            self.size,
            self.parent_gap,
            self.level,
            self.path_ids,
            self.path_parent,
            self.path_label,
            self.value_kind,
            self.value_ref,
            self.numeric_values,
        ):
            total += len(column) * column.itemsize
        total += sum(len(text) for text in self.string_values)
        for terms in self.text_values:
            if type(terms) is tuple:
                total += 8 * len(terms)
            else:
                total += sum(len(term) for term in terms)
        total += sum(len(term) for term in self.term_table)
        total += sum(len(label) for label in self.label_table)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnarDocument elements={len(self)} "
            f"labels={len(self.label_table)} paths={len(self.path_parent)}>"
        )


# -- construction ------------------------------------------------------------


def _store_value(doc: ColumnarDocument, index: int, value) -> None:
    """Place an already-typed value into the typed columns."""
    if value is None:
        return
    if isinstance(value, bool):
        raise TypeError("bool is not a supported XML element value")
    if isinstance(value, int):
        ref = len(doc.numeric_values)
        if _Q_MIN <= value <= _Q_MAX:
            doc.numeric_values.append(value)
        else:
            doc.numeric_values.append(0)
            doc.numeric_overflow[ref] = value
        doc.value_kind[index] = KIND_NUMERIC
        doc.value_ref[index] = ref
    elif isinstance(value, str):
        doc.value_kind[index] = KIND_STRING
        doc.value_ref[index] = len(doc.string_values)
        doc.string_values.append(value)
    elif isinstance(value, (set, frozenset)):
        # Kept verbatim (no id interning): reconstruction from ids is
        # only layout-safe when the original insertion order is known,
        # which it is not for an already-built set.
        doc.value_kind[index] = KIND_TEXT
        doc.value_ref[index] = len(doc.text_values)
        doc.text_values.append(frozenset(value))
    else:
        raise TypeError(
            f"unsupported element value type: {type(value).__name__}"
        )


def _store_text_terms(
    doc: ColumnarDocument, index: int, ordered_terms: List[str]
) -> None:
    """Store a streamed term set as interned ids, preserving order."""
    term_index = doc.term_index
    table = doc.term_table
    ids = []
    for term in ordered_terms:
        term_id = term_index.get(term)
        if term_id is None:
            term_id = len(table)
            term_index[term] = term_id
            table.append(term)
        ids.append(term_id)
    doc.value_kind[index] = KIND_TEXT
    doc.value_ref[index] = len(doc.text_values)
    doc.text_values.append(tuple(ids))


def from_events(
    events: Iterable[XMLEvent],
    type_map: Optional[Mapping[TypeKey, ValueType]] = None,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> ColumnarDocument:
    """Build a :class:`ColumnarDocument` from one tokenizer event stream.

    Consumes the stream in a single pass with O(depth) transient state;
    value typing applies the tree parser's exact heuristic (``type_map``
    and ``text_word_threshold`` have :func:`~repro.xmltree.parser.
    parse_string` semantics).

    This is the ingest hot loop: every column, intern table, and stack
    is bound to a local, and node/path appends are inlined rather than
    routed through :meth:`ColumnarDocument._path_id` (the single-node
    reference used by :func:`freeze`).  The stored columns are
    bit-identical either way — pinned by the freeze-vs-ingest equality
    test.
    """
    type_map = type_map or {}
    doc = ColumnarDocument()
    path_index = doc._path_index
    #: Open-element stacks: node index, path id, buffered text chunks.
    open_nodes: List[int] = []
    open_pids: List[int] = []
    open_text: List[List[str]] = []

    labels_col = doc.labels
    size_col = doc.size
    gap_col = doc.parent_gap
    level_col = doc.level
    path_ids = doc.path_ids
    path_parent = doc.path_parent
    path_label = doc.path_label
    value_kind = doc.value_kind
    value_ref = doc.value_ref
    label_table = doc.label_table
    label_index = doc.label_index
    string_values = doc.string_values
    numeric_values = doc.numeric_values
    numeric_overflow = doc.numeric_overflow

    for event in events:
        kind = event[0]
        if kind is START or kind is ATTR or kind == START or kind == ATTR:
            if kind is START or kind == START:
                label = event[1]
                parent_index = open_nodes[-1] if open_nodes else -1
                parent_pid = open_pids[-1] if open_pids else -1
            else:
                # Attributes become @name children with raw STRING
                # values, exactly as the tree parser materializes them.
                label = "@" + event[1]
                parent_index = open_nodes[-1]
                parent_pid = open_pids[-1]
            label_id = label_index.get(label)
            if label_id is None:
                label_id = len(label_table)
                label_index[label] = label_id
                label_table.append(label)
            index = len(labels_col)
            labels_col.append(label_id)
            # An attribute is a childless leaf, so its size is final;
            # an element's is written when it closes.
            size_col.append(1)
            gap_col.append(index - parent_index)
            # Depth equals the open-element count for both kinds: a new
            # element is not yet on the stack, and an attribute hangs
            # off the stack top.
            level_col.append(len(open_nodes))
            value_kind.append(KIND_NULL)
            value_ref.append(-1)
            key = (parent_pid, label_id)
            pid = path_index.get(key)
            if pid is None:
                pid = len(path_parent)
                path_index[key] = pid
                path_parent.append(parent_pid)
                path_label.append(label_id)
            path_ids.append(pid)
            if kind is START or kind == START:
                open_nodes.append(index)
                open_pids.append(pid)
                open_text.append([])
            else:
                value_kind[index] = KIND_STRING
                value_ref[index] = len(string_values)
                string_values.append(event[2])
        elif kind is END or kind == END:
            index = open_nodes.pop()
            size_col[index] = len(labels_col) - index
            pid = open_pids.pop()
            chunks = open_text.pop()
            if chunks:
                raw = chunks[0] if len(chunks) == 1 else "".join(chunks)
                stripped = raw.strip()
                if not stripped:
                    pass
                elif type_map:
                    # Forced types are rare enough to route through the
                    # parser's helper verbatim (it needs the path tuple).
                    typed = _typed_value(
                        raw, doc.path_tuple(pid), type_map,
                        text_word_threshold,
                    )
                    if type(typed) is frozenset:
                        _store_text_terms(
                            doc, index, tokenize_text_ordered(raw)
                        )
                    elif typed is not None:
                        _store_value(doc, index, typed)
                else:
                    # ``_typed_value``'s default heuristic, inlined so
                    # TEXT values tokenize exactly once and no label-path
                    # tuple is materialized per valued element.
                    try:
                        number = int(stripped)
                    except ValueError:
                        if len(stripped.split()) >= text_word_threshold:
                            _store_text_terms(
                                doc, index, tokenize_text_ordered(raw)
                            )
                        else:
                            value_kind[index] = KIND_STRING
                            value_ref[index] = len(string_values)
                            string_values.append(stripped)
                    else:
                        ref = len(numeric_values)
                        if _Q_MIN <= number <= _Q_MAX:
                            numeric_values.append(number)
                        else:
                            numeric_values.append(0)
                            numeric_overflow[ref] = number
                        value_kind[index] = KIND_NUMERIC
                        value_ref[index] = ref
        elif kind is TEXT or kind == TEXT:
            open_text[-1].append(event[1])
        else:  # pragma: no cover - the tokenizer emits no other kinds
            raise ValueError(f"unknown event kind {kind!r}")
    return doc


def ingest_string(
    text: str,
    type_map: Optional[Mapping[TypeKey, ValueType]] = None,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
) -> ColumnarDocument:
    """Tokenize and columnarize an XML document held in memory."""
    return from_events(iter_events(text), type_map, text_word_threshold)


def _newline_normalized(chunks) -> Iterator[bytes]:
    """Apply universal-newline translation to a byte-chunk stream.

    ``parse_document`` reads its file in text mode, which maps ``\\r\\n``
    and lone ``\\r`` to ``\\n``; the streaming path reads raw bytes for
    speed, so the same translation happens here (two C-level replaces
    per chunk, with a one-byte carry for a ``\\r`` on a chunk edge) to
    keep byte-for-byte input parity between the substrates.
    """
    pending_cr = False
    for chunk in chunks:
        if pending_cr:
            chunk = b"\r" + chunk
        pending_cr = chunk.endswith(b"\r")
        if pending_cr:
            chunk = chunk[:-1]
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if chunk:
            yield chunk
    if pending_cr:
        yield b"\n"


def ingest_file(
    path: str,
    type_map: Optional[Mapping[TypeKey, ValueType]] = None,
    text_word_threshold: int = DEFAULT_TEXT_WORD_THRESHOLD,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ColumnarDocument:
    """Stream an XML file from disk into a :class:`ColumnarDocument`.

    Unlike :func:`repro.xmltree.parser.parse_document`, the source is
    never fully resident: the tokenizer holds one bounded window of the
    file while the columns grow.  The file is read in binary mode —
    the byte tokenizer never decodes markup — with universal-newline
    translation matching the object parser's text-mode read.
    """
    with open(path, "rb") as handle:

        def _chunks() -> Iterator[bytes]:
            while True:
                chunk = handle.read(chunk_size)
                if not chunk:
                    return
                yield chunk

        return from_events(
            iter_events(_newline_normalized(_chunks())),
            type_map,
            text_word_threshold,
        )


# -- object-model adapters ----------------------------------------------------


def freeze(tree: XMLTree) -> ColumnarDocument:
    """Encode an object :class:`XMLTree` into columnar form.

    Values are already typed on the tree, so they are stored as-is (no
    re-typing); the preorder of the columns matches ``tree.root.iter()``.
    """
    doc = ColumnarDocument()
    stack: List[Tuple[XMLElement, int, int]] = [(tree.root, -1, -1)]
    while stack:
        element, parent_index, parent_pid = stack.pop()
        label_id = doc._label_id(element.label)
        index = len(doc.labels)
        doc.labels.append(label_id)
        doc.size.append(1)
        doc.parent_gap.append(index - parent_index)
        doc.level.append(doc.level[parent_index] + 1 if parent_index >= 0 else 0)
        doc.value_kind.append(KIND_NULL)
        doc.value_ref.append(-1)
        pid = doc._path_id(parent_pid, label_id)
        doc.path_ids.append(pid)
        _store_value(doc, index, element.value)
        for child in reversed(element.children):
            stack.append((child, index, pid))
    # Children follow their parents in preorder, so one backward pass
    # has every subtree complete before it is added to its parent's.
    size, gap = doc.size, doc.parent_gap
    for index in range(len(size) - 1, 0, -1):
        size[index - gap[index]] += size[index]
    return doc


#: What the core accepts: a columnar document, or an object tree that
#: :func:`as_columnar` freezes once at the entry point.
Document = Union["XMLTree", ColumnarDocument]


def as_columnar(document: Document) -> ColumnarDocument:
    """The columnar form of ``document``: passed through, or frozen once.

    Construction, exact evaluation and statistics compute only over
    :class:`ColumnarDocument`; this is the one place an object tree
    crosses into them.
    """
    if isinstance(document, ColumnarDocument):
        return document
    return freeze(document)


def thaw(doc: ColumnarDocument, root: int = 0) -> XMLTree:
    """The object :class:`XMLTree` of a columnar document's subtree at
    ``root`` (by default, of the whole document)."""
    from repro.xmltree.tree import XMLElement, XMLTree

    if not len(doc):
        raise ValueError("cannot thaw an empty ColumnarDocument")
    elements: List[XMLElement] = []
    for index in range(root, doc.subtree_end(root)):
        element = XMLElement(doc.label(index), doc.value(index))
        if index > root:
            elements[doc.parent_of(index) - root].append_child(element)
        elements.append(element)
    return XMLTree(elements[0])
