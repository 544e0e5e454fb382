"""One namespace for every counter the execution paths grow.

Before this module the driver's stats surface was fragmented: Verlet-cache
hit/miss on :class:`~repro.tree.neighborlist.VerletCacheStats`, guard
counters on :class:`~repro.resilience.guard.GuardReport`, each
with its own accessor.  A :class:`MetricsRegistry` absorbs them all under
dotted names (``neighbor_cache.hits``, ``guard.failures``,
``checkpoint.writes``),
which is what :class:`~repro.observability.report.RunReport` and the
JSONL exporter serialize.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

__all__ = ["MetricsRegistry"]

Number = Union[int, float]


class MetricsRegistry:
    """Flat, dotted-name numeric counters (insertion-order preserved)."""

    def __init__(self) -> None:
        self._values: Dict[str, Number] = {}

    # ------------------------------------------------------------------
    def add(self, name: str, value: Number = 1) -> None:
        """Accumulate ``value`` onto counter ``name`` (created at 0)."""
        self._values[name] = self._values.get(name, 0) + value

    def set(self, name: str, value: Number) -> None:
        """Overwrite counter ``name`` (gauges: last write wins)."""
        self._values[name] = value

    def absorb(self, namespace: str, stats: object) -> None:
        """Fold a stats mapping/dataclass in under ``namespace.*``.

        ``stats`` may be a mapping or any object with an ``as_dict``
        method.  Booleans become 0/1; non-numeric values (event lists,
        strings) are skipped — the registry is numbers only.
        """
        if stats is None:
            return
        if not isinstance(stats, Mapping):
            as_dict = getattr(stats, "as_dict", None)
            if as_dict is None:
                raise TypeError(
                    f"cannot absorb {type(stats).__name__}: "
                    "need a mapping or an as_dict()"
                )
            stats = as_dict()
        for key, value in stats.items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                self.set(f"{namespace}.{key}", value)

    # ------------------------------------------------------------------
    def get(self, name: str, default: Number = 0) -> Number:
        return self._values.get(name, default)

    def subset(self, prefix: str) -> Dict[str, Number]:
        """All counters under ``prefix.`` with the prefix stripped."""
        cut = len(prefix) + 1
        return {
            name[cut:]: value
            for name, value in self._values.items()
            if name.startswith(prefix + ".")
        }

    def as_dict(self) -> Dict[str, Number]:
        """Plain dict copy (JSON-serializable when values are)."""
        return dict(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({self._values!r})"
