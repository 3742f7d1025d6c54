"""Content-addressed, refcounted storage for page contents.

Every distinct page content in a :class:`~repro.hardware.memory.
PhysicalMemory` is *interned* exactly once as a :class:`PageRecord`;
frames hold a reference to the record instead of carrying their own
``bytes``.  Two consequences the data plane is built on:

* identical contents (same-build OS pages across guests, File-A copies,
  the canonical zero page ``b""``) share one record, so the digest of a
  content is computed at most once over the record's lifetime — the KSM
  scan loop never re-hashes a page that merely sat still;
* content equality degrades to record identity for anything holding a
  record, which is what lets the KSM volatility filter and the
  migration dedup table run on plain dict lookups.

The intern table is keyed by the content ``bytes`` value itself rather
than by digest: CPython caches the hash of a ``bytes`` object, so
re-interning a content that is already resident costs one dict probe
with a cached hash — no BLAKE2 call, no byte comparison beyond the
bucket check.  Digests are materialized lazily, only when the KSM trees
or the migration dedup wire format actually need one.

Refcounts here count *frames* holding the record (one per distinct
frame), not pfn mappings — pfn-level sharing is the frame refcount's
job, one layer up.
"""

import hashlib
from copy import deepcopy as _deepcopy

from repro.errors import MemoryError_

PAGE_SIZE = 4096

_DIGEST_SIZE = 16


def content_digest(content):
    """Stable 16-byte digest of logical page content."""
    return hashlib.blake2b(content, digest_size=_DIGEST_SIZE).digest()


class PageRecord:
    """One unique page content plus its bookkeeping.

    ``refs`` counts the frames holding this record.  ``_digest`` is the
    lazily computed :func:`content_digest` — read it through
    :attr:`digest` (records are immutable, so the cache never
    invalidates).
    """

    __slots__ = ("content", "refs", "_digest")

    def __init__(self, content, refs=1):
        self.content = content
        self.refs = refs
        self._digest = None

    @property
    def digest(self):
        digest = self._digest
        if digest is None:
            digest = self._digest = content_digest(self.content)
        return digest

    def __repr__(self):
        return f"<PageRecord {len(self.content)}B refs={self.refs}>"


class PageStore:
    """The intern table: content bytes -> live :class:`PageRecord`.

    Owned by one :class:`~repro.hardware.memory.PhysicalMemory`; the
    ``perf`` counters (``page_store_interns`` / ``page_store_hits``)
    make the dedup ratio visible per run.
    """

    __slots__ = ("_by_content", "_perf")

    def __init__(self, perf):
        self._by_content = {}
        self._perf = perf

    def __deepcopy__(self, memo):
        # Flat table copy: keys are immutable bytes (shared), records
        # route through the memo so snapshot forks keep sharing them by
        # identity while standalone deepcopies still duplicate.  Every
        # fork copies each memory's table; the generic path also walks
        # the keys, which doubles this copy's cost.
        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        clone._perf = _deepcopy(self._perf, memo)
        clone._by_content = {
            content: _deepcopy(record, memo)
            for content, record in self._by_content.items()
        }
        return clone

    @property
    def unique_contents(self):
        """Number of distinct page contents currently resident."""
        return len(self._by_content)

    def iter_records(self):
        """Yield every resident record.

        Snapshot/fork uses this to pre-seed the copy memo so records
        are shared by identity instead of byte-copied.
        """
        return iter(self._by_content.values())

    def refs_partition(self):
        """``{content: refs}`` for every resident record.

        A point-in-time view of the refcount partition; the fork
        conservation tests diff this before a fork against after the
        fork is disposed.
        """
        return {
            content: record.refs
            for content, record in self._by_content.items()
        }

    def intern(self, content):
        """Return the record for ``content``, creating it if needed.

        Bumps the record's refcount; the caller owns one reference and
        must :meth:`release` it when the holding frame dies.
        """
        record = self._by_content.get(content)
        if record is None:
            if len(content) > PAGE_SIZE:
                raise MemoryError_(
                    f"page content of {len(content)} bytes exceeds PAGE_SIZE"
                )
            record = PageRecord(content)
            self._by_content[content] = record
            self._perf.page_store_interns += 1
        else:
            record.refs += 1
            self._perf.page_store_hits += 1
        return record

    def release(self, record):
        """Drop one reference; evicts the record when the last one dies.

        Safe to call with a record this store never interned (a
        standalone frame remapped into the memory by a test): eviction
        only happens when the table entry is this exact record.
        """
        record.refs -= 1
        if record.refs <= 0 and self._by_content.get(record.content) is record:
            del self._by_content[record.content]

    def reintern(self, record, content):
        """Swap a frame's record for one holding ``content``.

        Interning before releasing keeps a same-content rewrite from
        evicting and recreating the record (and losing its cached
        digest).
        """
        new_record = self.intern(content)
        self.release(record)
        return new_record
