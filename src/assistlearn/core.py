"""Sample identity, feature partitions and collation.

A dataset is split *vertically*: every participant holds all rows but only its
own columns. Rows are addressed by opaque string ids; whenever two partitions
must line up, the engine inner-joins on ids and sorts the survivors
lexicographically, so row order never depends on insertion order.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateId,
    MissingId,
    OverlappingGroups,
    UnknownColumn,
)

SampleId = str


def derive_seed(*parts) -> int:
    """Deterministically derive a 63-bit seed from arbitrary labelled parts.

    Uses SHA-256 over a delimited string rendering, so the same parts give the
    same seed on every platform and in every process.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def check_int(name: str, value, least=None) -> None:
    """ValueError unless ``value`` is an int or a numpy integer, never a
    bool, and at least ``least`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def check_real(name: str, value, above=None) -> float:
    """``value`` as a float; ValueError unless it is a finite real number,
    never a bool, and above ``above`` when that is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if above is not None and value <= above:
        raise ValueError(f"{name} must be > {above}")
    return float(value)


def id_frame(ids: Sequence[SampleId]) -> bytes:
    """The ids joined by newlines in UTF-8, the wire's id frame; ValueError
    unless each is a non-empty str with no newline that encodes as UTF-8,
    which makes the frame injective. One join checks every id."""
    try:
        frame = "\n".join(ids).encode("utf-8")
    except (TypeError, UnicodeEncodeError) as exc:
        raise ValueError(f"sample ids must be UTF-8 str: {exc}") from None
    if not all(ids) or ids and frame.count(b"\n") != len(ids) - 1:
        raise ValueError("empty sample id, or one with a newline")
    return frame


def _as_id_tuple(ids) -> tuple[SampleId, ...]:
    """The ids, checked by ``id_frame``, as a tuple of plain strs."""
    ids = tuple(ids)
    id_frame(ids)
    if set(map(type, ids)) <= {str}:
        return ids
    return tuple(map(str.__str__, ids))


# construction problems are caller bugs, not protocol events: plain ValueError
@dataclass(frozen=True, eq=False)
class FeaturePartition:
    """One participant's vertical slice: ids, a float64 matrix, column names.
    Any id that ``id_frame`` refuses is a ValueError, as in TaskLabels."""

    ids: tuple[SampleId, ...]
    features: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        ids = _as_id_tuple(self.ids)
        object.__setattr__(self, "ids", ids)
        feats = np.array(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[0] != len(ids):
            raise ValueError(
                f"{len(ids)} ids but {feats.shape[0]} feature rows"
            )
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != feats.shape[1]:
            raise ValueError(
                f"{len(names)} names for {feats.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        row_of = dict(zip(ids, range(len(ids))))
        if len(row_of) != len(ids):
            raise DuplicateId("duplicate sample ids in partition")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "_row_of", row_of)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_cols(self) -> int:
        return self.features.shape[1]

    def rows_for(self, ids: Iterable[SampleId]) -> np.ndarray:
        """Row positions for the given ids; MissingId if any is absent."""
        lookup = self._row_of  # type: ignore[attr-defined]
        ids = tuple(ids)
        try:
            return np.fromiter(map(lookup.__getitem__, ids), dtype=np.intp,
                               count=len(ids))
        except KeyError:
            missing = next(s for s in ids if s not in lookup)
            raise MissingId(f"sample id {missing!r} not in partition") from None


@dataclass(frozen=True, eq=False)
class TaskLabels:
    """Supervised targets owned by the task initiator."""

    ids: tuple[SampleId, ...]
    values: np.ndarray

    def __post_init__(self):
        ids = _as_id_tuple(self.ids)
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {vals.shape}")
        if len(ids) != vals.shape[0]:
            raise ValueError(f"{len(ids)} ids but {vals.shape[0]} labels")
        value_of = dict(zip(ids, vals.tolist()))
        if len(value_of) != len(ids):
            raise DuplicateId("duplicate sample ids in labels")
        if not np.all(np.isfinite(vals)):
            raise ValueError("labels must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_value_of", value_of)

    def lookup(self, ids: Sequence[SampleId]) -> np.ndarray:
        table = self._value_of  # type: ignore[attr-defined]
        try:
            return np.fromiter(map(table.__getitem__, ids), dtype=np.float64,
                               count=len(ids))
        except KeyError:
            missing = next(s for s in ids if s not in table)
            raise MissingId(f"no label for sample id {missing!r}") from None


def align(partition: FeaturePartition, ids: Sequence[SampleId]) -> np.ndarray:
    """Feature rows of ``partition`` for ``ids``, in the order given.

    ``ids`` is any sequence of sample ids. The result is a fresh writable
    array; the partition stays immutable.
    """
    return partition.features[partition.rows_for(ids)]


def vertical_split(full: FeaturePartition,
                   groups: Sequence[Sequence[str]]) -> list[FeaturePartition]:
    """Split one partition column-wise into disjoint named groups."""
    out = []
    seen: set[str] = set()
    for group in groups:
        names = sorted(group) if isinstance(group, (set, frozenset)) else list(group)
        for name in names:
            if name not in full.feature_names:
                raise UnknownColumn(f"column {name!r} not in partition")
            if name in seen:
                raise OverlappingGroups(f"column {name!r} assigned twice")
            seen.add(name)
        cols = [full.feature_names.index(n) for n in names]
        out.append(FeaturePartition(ids=full.ids,
                                    features=full.features[:, cols],
                                    feature_names=tuple(names)))
    return out


@dataclass
class LocalModule:
    """A participant: its partition, its learner, and its private model store.

    The store maps (task id, round) to a fitted model and is written at most
    once per key; a second write raises StorageConflict.
    """

    module_id: str
    partition: FeaturePartition
    learner: "LearnerSpec"  # noqa: F821  (import cycle kept out on purpose)
    model_store: dict = field(default_factory=dict)

    def record_model(self, task_id: str, round_no: int, model) -> None:
        from .errors import StorageConflict
        key = (task_id, int(round_no))
        if key in self.model_store:
            raise StorageConflict(f"model already recorded for {key}")
        self.model_store[key] = model

    def stored_model(self, task_id: str, round_no: int):
        from .errors import UnknownRound
        try:
            return self.model_store[(task_id, int(round_no))]
        except KeyError:
            raise UnknownRound(
                f"no model for task {task_id!r} round {round_no}"
            ) from None
