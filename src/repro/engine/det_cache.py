"""Deterministic sub-plan caches — the tiers behind ``det_cache=...``.

Sec. 9 observes that "the result of each deterministic part of the query
plan is materialized and saved" so that replenishment re-runs skip all
deterministic work.  The seed implementation scoped that cache to one
:class:`~repro.engine.operators.ExecutionContext`, which dies with the
query; this module generalizes it into pluggable tiers:

* :class:`ContextDetCache` — the original behavior: entries are keyed by
  ``node_id`` and live exactly as long as the execution context (one query
  including all its replenishment re-runs).
* :class:`SessionDetCache` — a cross-query cache owned by the
  :class:`~repro.sql.session.Session`.  Entries are keyed by the
  *structural fingerprint* of the plan subtree
  (:meth:`~repro.engine.operators.PlanNode.fingerprint`), so a freshly
  compiled plan hits the entries an earlier, structurally identical plan
  populated.  Each entry records its dependency set
  (:meth:`~repro.engine.operators.PlanNode.base_tables`) together with
  the per-name catalog versions it was filled under.  A lookup drops
  only entries whose dependencies actually moved — queries over
  disjoint tables survive each other's DDL — and when every moved
  dependency grew *append-only* (per the catalog's append journal) the
  entry is refreshed in place by splicing just the new rows
  (:func:`~repro.engine.operators.refresh_after_append`) instead of
  being recomputed.
* :class:`NullDetCache` — caching disabled (``det_cache="off"``); every
  deterministic subtree re-runs on every plan execution.

All tiers hold :class:`~repro.engine.bundles.BundleRelation` objects that
operators treat as immutable; when a cached relation's window metadata
disagrees with the requesting context it is re-stamped (copied with new
``positions``/``aligned``) by the caller, never mutated in place.
"""

from __future__ import annotations

__all__ = ["ContextDetCache", "SessionDetCache", "NullDetCache",
           "make_det_cache", "classify_moves"]


def classify_moves(catalog, versions):
    """Classify recorded dependency versions against the current catalog.

    ``versions`` maps dependency names (lowercased) to the per-name
    catalog version a consumer last refreshed at.  Returns:

    * ``("clean", {})`` — nothing moved; the consumer is current.
    * ``("appends", {name: (old_rows, new_rows)})`` — every moved
      dependency grew purely by journaled appends; the consumer can
      refresh incrementally by splicing/extending just the new rows.
    * ``("rebuild", {})`` — some dependency was rewritten, dropped, or
      its append chain was compacted away; only a full recompute is
      sound.

    This is the one classification both the det-cache's entry validation
    and a session's standing queries apply, so the two layers can never
    disagree about what an append-only move is.
    """
    moved = {name: recorded for name, recorded in versions.items()
             if catalog.table_version(name) != recorded}
    if not moved:
        return "clean", {}
    appends: dict[str, tuple[int, int]] = {}
    for name, recorded in moved.items():
        grew = catalog.appended_range(name, recorded)
        if grew is None:
            return "rebuild", {}
        appends[name] = grew
    return "appends", appends


class ContextDetCache:
    """Per-execution-context cache keyed by plan-node identity."""

    def __init__(self):
        self._entries: dict[int, object] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, node, context):
        cached = self._entries.get(node.node_id)
        if cached is None:
            self.misses += 1
        else:
            self.hits += 1
        return cached

    def store(self, node, relation, context=None) -> None:
        self._entries[node.node_id] = relation

    def __len__(self) -> int:
        return len(self._entries)


class _CacheEntry:
    """A cached deterministic relation plus the versions it was built at.

    ``versions`` maps each dependency name (lowercased, from
    ``PlanNode.base_tables()``) to the catalog's per-name version when
    the entry was stored — the granularity lookups validate against.
    """

    __slots__ = ("relation", "versions")

    def __init__(self, relation, versions: dict[str, int]):
        self.relation = relation
        self.versions = versions


class SessionDetCache:
    """Cross-query cache keyed by structural plan fingerprint.

    The fingerprint identifies *what* a deterministic subtree computes
    (operator types, tables, predicates, column lists); the recorded
    catalog versions identify what the referenced tables *contained*.
    Each entry is checked against only the per-name versions of its own
    dependency set, and append-only growth is spliced in instead of
    recomputed.
    """

    def __init__(self):
        self._entries: dict[str, _CacheEntry] = {}
        self._catalog_uid: int | None = None
        self.hits = 0
        self.misses = 0
        #: Whole-cache drops (a different catalog object entirely).
        self.invalidations = 0
        #: Single entries dropped because their own dependencies moved
        #: non-append-only.
        self.partial_invalidations = 0
        #: Entries refreshed in place by splicing appended rows.
        self.append_refreshes = 0

    def _sync_catalog(self, context) -> None:
        catalog = context.catalog
        if self._catalog_uid != catalog.uid:
            # A different catalog object entirely: per-name versions are
            # not comparable across catalogs, so start from scratch.
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._catalog_uid = catalog.uid

    def lookup(self, node, context):
        self._sync_catalog(context)
        fingerprint = node.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is not None:
            entry = self._validate(fingerprint, entry, node, context)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.relation

    def _validate(self, fingerprint, entry, node, context):
        """Dependency check for one entry: keep, splice-refresh, or drop."""
        verdict, appends = classify_moves(context.catalog, entry.versions)
        if verdict == "clean":
            return entry
        refreshed = (self._refresh(node, context, appends)
                     if verdict == "appends" else None)
        if refreshed is None:
            del self._entries[fingerprint]
            self.partial_invalidations += 1
            return None
        return refreshed

    def _refresh(self, node, context, appends):
        """Splice appended rows into this subtree's cached relations.

        Every refreshed node (the root and any moved descendants) is
        re-stored with current dependency versions; a ``None`` from the
        splicer means some operator on a moved path is not splicable and
        the caller falls back to dropping the entry.
        """
        # Imported lazily: operators imports this module at load time.
        from repro.engine.operators import refresh_after_append

        def stale_of(inner):
            stale = self._entries.get(inner.fingerprint())
            return None if stale is None else stale.relation

        relation = refresh_after_append(
            node, context, appends, stale_of,
            lambda inner, refreshed: self.store(inner, refreshed, context))
        if relation is None:
            return None
        self.append_refreshes += 1
        return self._entries[node.fingerprint()]

    def store(self, node, relation, context=None) -> None:
        versions: dict[str, int] = {}
        if context is not None:
            catalog = context.catalog
            versions = {name: catalog.table_version(name)
                        for name in node.base_tables()}
        self._entries[node.fingerprint()] = _CacheEntry(relation, versions)

    def low_water(self, name: str):
        """Smallest recorded version of ``name`` among live entries.

        ``None`` when no entry depends on the name — the caller (the
        session's append-journal compaction) then treats the name as
        having no det-cache consumers at all.
        """
        key = name.lower()
        recorded = [entry.versions[key] for entry in self._entries.values()
                    if key in entry.versions]
        return min(recorded) if recorded else None

    def stats(self) -> dict:
        """Counter snapshot (the ``Session.cache_stats()`` payload)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "partial_invalidations": self.partial_invalidations,
            "append_refreshes": self.append_refreshes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._catalog_uid = None

    def __len__(self) -> int:
        return len(self._entries)


class NullDetCache:
    """``det_cache="off"``: never caches anything."""

    hits = 0
    misses = 0

    def lookup(self, node, context):
        return None

    def store(self, node, relation, context=None) -> None:
        pass

    def __len__(self) -> int:
        return 0


def make_det_cache(mode: str):
    """Cache instance for an ``ExecutionOptions.det_cache`` mode.

    ``"session"`` is intentionally absent: a session cache must be *owned*
    by a long-lived object (the Session) to be worth anything, so callers
    construct :class:`SessionDetCache` themselves and pass it down.
    """
    if mode == "context":
        return ContextDetCache()
    if mode == "off":
        return NullDetCache()
    raise ValueError(f"make_det_cache does not build {mode!r} caches")
