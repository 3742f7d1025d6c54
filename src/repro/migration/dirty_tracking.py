"""Dirty-page tracking for live migration.

Two pieces:

* :class:`DirtyBitmap` — an int-backed bitmap over page numbers (one
  64-page word per dict slot), the representation KVM's dirty log
  actually uses.  Guest memories mark writes directly into a word dict;
  draining the log wraps those words into a ``DirtyBitmap``, which
  supports the membership / count / sorted-iteration operations the
  pre-copy loop needs — word-wise, without materializing a per-page
  set.
* :class:`DirtyTracker` — a thin, testable façade over the guest
  memory's dirty log that adds the rate estimation pre-copy needs for
  its convergence decision.
"""

WORD_SHIFT = 6
WORD_BITS = 1 << WORD_SHIFT

#: All 64 bits set — the fully-dirty word bulk transfers produce.
_FULL_WORD = (1 << WORD_BITS) - 1
#: byte value -> tuple of set bit positions, precomputed once so the
#: word scan peels whole bytes through a table lookup instead of a
#: per-bit Python loop.
_BYTE_PAGES = tuple(
    tuple(bit for bit in range(8) if (value >> bit) & 1)
    for value in range(256)
)


class DirtyBitmap:
    """A set of page numbers stored as 64-bit words.

    ``words`` maps ``pfn >> 6`` to an int whose bit ``pfn & 63`` marks
    the page dirty.  Iteration and :meth:`page_list` yield pages in
    ascending order, which is what the migration stream relies on for
    deterministic chunking.
    """

    __slots__ = ("words", "_count")

    def __init__(self, words=None):
        self.words = {} if words is None else words
        self._count = None

    def mark(self, pfn):
        words = self.words
        word_index = pfn >> WORD_SHIFT
        words[word_index] = words.get(word_index, 0) | (1 << (pfn & 63))
        self._count = None

    def discard(self, pfn):
        word_index = pfn >> WORD_SHIFT
        word = self.words.get(word_index)
        if word is None:
            return
        word &= ~(1 << (pfn & 63))
        if word:
            self.words[word_index] = word
        else:
            del self.words[word_index]
        self._count = None

    def clear(self):
        self.words.clear()
        self._count = None

    def __contains__(self, pfn):
        word = self.words.get(pfn >> WORD_SHIFT)
        return word is not None and (word >> (pfn & 63)) & 1 == 1

    def __len__(self):
        n = self._count
        if n is None:
            n = self._count = sum(w.bit_count() for w in self.words.values())
        return n

    def __iter__(self):
        return iter(self.page_list())

    def __bool__(self):
        return bool(self.words) and len(self) > 0

    def page_list(self):
        """Ascending list of dirty page numbers, word-wise.

        Visits each populated word once.  A fully-set word (the shape
        bulk writes produce) expands as one C-level ``range`` extend;
        anything else is peeled byte-at-a-time through the precomputed
        bit-position table, so the per-page Python loop only ever runs
        over the set bits of non-zero bytes.
        """
        pages = []
        extend = pages.extend
        words = self.words
        byte_pages = _BYTE_PAGES
        for word_index in sorted(words):
            bits = words[word_index]
            base = word_index << WORD_SHIFT
            if bits == _FULL_WORD:
                extend(range(base, base + WORD_BITS))
                continue
            for byte_offset, byte in enumerate(bits.to_bytes(8, "little")):
                if byte:
                    start = base + (byte_offset << 3)
                    extend(start + bit for bit in byte_pages[byte])
        return pages

    def __repr__(self):
        return f"<DirtyBitmap pages={len(self)} words={len(self.words)}>"


class DirtyTracker:
    """Tracks writes to one guest memory across migration iterations."""

    def __init__(self, memory, engine):
        self.memory = memory
        self.engine = engine
        self._last_sync = engine.now
        self.last_dirty_pages = 0
        self.last_rate_pages_per_s = 0.0

    def start(self):
        self.memory.start_dirty_log()
        self._last_sync = self.engine.now

    def sync(self):
        """Collect pages dirtied since the last sync.

        Returns ``(dirty_bitmap, bulk_dirty_pages)`` and updates the
        observed dirty rate.
        """
        dirty, bulk = self.memory.fetch_and_reset_dirty()
        now = self.engine.now
        elapsed = now - self._last_sync
        self._last_sync = now
        self.last_dirty_pages = len(dirty) + bulk
        if elapsed > 0:
            self.last_rate_pages_per_s = self.last_dirty_pages / elapsed
        return dirty, bulk

    def stop(self):
        self.memory.stop_dirty_log()
