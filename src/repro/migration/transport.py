"""Migration wire protocol messages.

Sizes follow QEMU's RAM stream format closely enough for honest timing:
a normal page costs its 4 KiB of content plus an 8-byte header; a zero
page costs only the header; bulk pages (guest-unique anonymous memory
tracked by count) are full-size.
"""

PAGE_WIRE_BYTES = 4096 + 8
ZERO_WIRE_BYTES = 8
ACK_BYTES = 64
#: Fraction of a page XBZRLE delta encoding ships on average for a
#: cache-hit resend (run-length encoded word diffs).
XBZRLE_DELTA_FRACTION = 0.28
#: Wire cost of one dedup back-reference: gpfn + chunk-local index +
#: header (the content itself already shipped once in this chunk).
DEDUP_REF_WIRE_BYTES = 24


def dedup_entries(entries):
    """Group ``(gpfn, content)`` entries by content value.

    Returns ``(unique, table)``: ``unique`` carries each distinct
    content once (first gpfn wins), ``table`` lists ``(gpfn, index)``
    back-references into ``unique`` for every duplicate.  Contents are
    compared by value, so pages the page store interned to the same
    record collapse for free.
    """
    index_of = {}
    unique = []
    table = []
    for entry in entries:
        content = entry[1]
        idx = index_of.get(content)
        if idx is None:
            index_of[content] = len(unique)
            unique.append(entry)
        else:
            table.append((entry[0], idx))
    return unique, table


class RamChunk:
    """A batch of RAM pages.

    ``entries`` is a list of ``(gpfn, content)`` for materialized pages;
    ``bulk_pages`` counts content-opaque full-size pages; ``zero_pages``
    counts header-only zero pages; ``xbzrle_pages`` counts how many of
    the full-size pages were delta-encoded against the sender's cache
    (their wire cost shrinks to :data:`XBZRLE_DELTA_FRACTION`).
    ``dedup_table`` (capability ``dedup``) lists ``(gpfn, index)``
    back-references for pages whose content equals an entry of this
    chunk: each costs :data:`DEDUP_REF_WIRE_BYTES` on the wire instead
    of a full page, but the destination still performs the full
    per-page write, so apply-side fault costs are unchanged.
    """

    __slots__ = (
        "entries",
        "bulk_pages",
        "zero_pages",
        "xbzrle_pages",
        "dedup_table",
    )

    def __init__(
        self,
        entries=(),
        bulk_pages=0,
        zero_pages=0,
        xbzrle_pages=0,
        dedup_table=(),
    ):
        self.entries = list(entries)
        self.bulk_pages = bulk_pages
        self.zero_pages = zero_pages
        self.xbzrle_pages = xbzrle_pages
        self.dedup_table = dedup_table

    @property
    def page_count(self):
        return len(self.entries) + len(self.dedup_table) + self.bulk_pages

    @property
    def wire_bytes(self):
        full = (
            (len(self.entries) + self.bulk_pages) * PAGE_WIRE_BYTES
            + self.zero_pages * ZERO_WIRE_BYTES
            + len(self.dedup_table) * DEDUP_REF_WIRE_BYTES
            + 16
        )
        savings = int(
            self.xbzrle_pages * 4096 * (1.0 - XBZRLE_DELTA_FRACTION)
        )
        return max(full - savings, 32)

    def __repr__(self):
        return (
            f"<RamChunk real={len(self.entries)} "
            f"deduped={len(self.dedup_table)} bulk={self.bulk_pages} "
            f"zero={self.zero_pages}>"
        )


class DeviceState:
    """The non-RAM device state sent during the stop-copy phase."""

    __slots__ = ("size_bytes",)

    def __init__(self, size_bytes=256 * 1024):
        self.size_bytes = size_bytes


class Complete:
    """End-of-migration control message carrying the guest handoff.

    ``guest_system`` is the migrating OS; ``alloc_floor`` keeps the
    destination's page allocator clear of every gpfn the source ever
    used; ``bulk_pages_total`` reconciles the bulk counter.
    """

    __slots__ = ("guest_system", "alloc_floor", "bulk_pages_total")

    def __init__(self, guest_system, alloc_floor, bulk_pages_total):
        self.guest_system = guest_system
        self.alloc_floor = alloc_floor
        self.bulk_pages_total = bulk_pages_total


class PostCopyHandoff:
    """Post-copy control message: switch over now, pages to follow.

    Carries the guest like :class:`Complete`; ``total_pages`` lets the
    destination price the remote-fault penalty of the pages still
    missing.
    """

    __slots__ = ("guest_system", "alloc_floor", "total_pages")

    def __init__(self, guest_system, alloc_floor, total_pages):
        self.guest_system = guest_system
        self.alloc_floor = alloc_floor
        self.total_pages = total_pages


class PostCopyDone:
    """Post-copy control message: every page is resident."""

    __slots__ = ()


class Ack:
    """Per-chunk flow-control acknowledgement."""

    __slots__ = ()
