"""`StoreConfig` — one object configuring every storage tier.

:class:`StoreConfig` is a single frozen value threaded through every layer
(``Engine``, ``ContainmentService``, ``ContainmentServer`` and the CLI): the
in-memory chase-store capacity, the decided-verdict cache size, and the
persistent tier's knobs (snapshot path, write policy, read-only attach).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

__all__ = ["SNAPSHOT_POLICIES", "StoreConfig"]

#: Valid values of :attr:`StoreConfig.snapshot_policy`:
#:
#: * ``"always"`` — persist a run every time a store session closes with
#:   new chase state (the default; a restarted process comes back warm);
#: * ``"evict"`` — persist only when the in-memory LRU evicts an entry
#:   (disk is a spill tier, hot keys stay memory-only until pressure);
#: * ``"manual"`` — persist only on an explicit
#:   :meth:`~repro.containment.store.ChaseStore.flush`.
SNAPSHOT_POLICIES = ("always", "evict", "manual")


@dataclass(frozen=True)
class StoreConfig:
    """Storage configuration shared by every layer of the stack.

    Attributes
    ----------
    capacity:
        Entries kept by the in-memory :class:`~repro.containment.store.ChaseStore`
        LRU (must be >= 1).
    path:
        Snapshot directory (or a ``.db`` file path) enabling the persistent
        tier; ``None`` keeps the store memory-only.
    snapshot_policy:
        When runs are written to disk — one of :data:`SNAPSHOT_POLICIES`.
    read_only:
        Attach the snapshot database read-only (``mode=ro``): serve from
        existing snapshots, never write.  This is how pool workers attach.
    result_cache:
        Capacity of the service-layer decided-result LRU (0 disables it).
    """

    capacity: int = 128
    path: Optional[Union[str, Path]] = None
    snapshot_policy: str = "always"
    read_only: bool = False
    result_cache: int = 4096

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"store capacity must be >= 1, got {self.capacity}")
        if self.snapshot_policy not in SNAPSHOT_POLICIES:
            raise ValueError(
                f"snapshot_policy must be one of {SNAPSHOT_POLICIES}, "
                f"got {self.snapshot_policy!r}"
            )
        if self.result_cache < 0:
            raise ValueError(
                f"result_cache must be >= 0, got {self.result_cache}"
            )
        if self.read_only and self.path is None:
            raise ValueError("read_only=True requires a snapshot path")

    @property
    def persistent(self) -> bool:
        """Whether the persistent tier is enabled (a path is configured)."""
        return self.path is not None

    def with_overrides(self, **changes) -> "StoreConfig":
        """A copy with the given fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)
