"""repro.store — the persistent, level-segmented chase snapshot tier.

The Theorem-12 chase is the expensive artifact this library keeps
recomputing; :mod:`repro.store` makes it durable and shareable.  A
:class:`SnapshotStore` is a stdlib-SQLite database of chase runs keyed by
query :meth:`~repro.core.query.ConjunctiveQuery.canonical_key` (digested
together with the dependency set), facts stored **level-segmented** so a
reader can hydrate exactly the prefix a request needs and
:meth:`~repro.chase.engine.ChaseRun.extend_to` can resume from any
persisted prefix.

Layers above build on this module:

* :class:`~repro.containment.store.ChaseStore` mounts a snapshot store as a
  persistent tier under its in-memory LRU (memory -> disk -> recompute);
* pool workers attach read-only and hydrate keys on demand instead of
  receiving pickled ChaseRuns (zero-pickle ``check_all`` parallelism);
* :mod:`repro.serve` shards share one store directory, so a restarted or
  resharded fleet comes back warm.

:class:`StoreConfig` is the single configuration object threaded through
``Engine``/``ContainmentService``/``ContainmentServer``/``flq``.
"""

from .codec import (
    FORMAT_VERSION,
    decode_atom,
    decode_term,
    decode_terms,
    dependency_fingerprint,
    encode_atom,
    encode_term,
    encode_terms,
    key_digest,
)
from .config import SNAPSHOT_POLICIES, StoreConfig
from .snapshot import DB_FILENAME, RunSnapshot, SnapshotError, SnapshotStore

__all__ = [
    "FORMAT_VERSION",
    "DB_FILENAME",
    "SNAPSHOT_POLICIES",
    "StoreConfig",
    "RunSnapshot",
    "SnapshotError",
    "SnapshotStore",
    "dependency_fingerprint",
    "key_digest",
    "encode_term",
    "decode_term",
    "encode_atom",
    "decode_atom",
    "encode_terms",
    "decode_terms",
]
