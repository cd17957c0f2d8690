"""Geo-tagged object database.

The AR back-end's database (Section 6.3): 105 objects emulating a
retail store, each stored with its name, an annotation tag, SURF
keypoints/descriptors and a geo-tag (the store sub-section the object
lives in).  The three search-space schemes of Section 7.3 are queries
against this structure: the whole floor (Naive), the sections of the
two strongest landmarks (rxPower), or the sub-sections around a
trilaterated location (ACACIA).

The paper persists the DB in OpenCV YAML; this reproduction builds it
in memory from seeded synthetic models, so it has no file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.vision.features import ObjectModel


@dataclass
class ObjectRecord:
    """One catalogued object plus its location metadata.

    ``nominal_features`` is the paper-scale stored feature count used by
    the *timing* cost model; ``model`` carries the (smaller) descriptor
    set actually matched for correctness.  See the two-fidelity note in
    :mod:`repro.vision`.
    """

    model: ObjectModel
    tag: str                      # annotation returned to the user
    section: str                  # coarse area (food, toys, ...)
    subsection: int               # fine geo-tag (cell id)
    position: tuple[float, float]
    nominal_features: float = 500.0

    @property
    def name(self) -> str:
        return self.model.name


def _condition_model(model: ObjectModel) -> None:
    """Store descriptors unit-normalized, float64 and C-contiguous.

    The matchers assume unit rows (cosine distance via a plain GEMM)
    and contiguous memory (BLAS fast path; cheap stacking in the
    batched engine).  Rows already unit within 1e-9 are left untouched
    so a save/load round-trip is bit-stable.
    """
    descriptors = np.ascontiguousarray(model.descriptors, dtype=np.float64)
    if descriptors.size:
        norms = np.linalg.norm(descriptors, axis=1, keepdims=True)
        off_unit = np.abs(norms - 1.0) > 1e-9
        if np.any(off_unit):
            np.divide(descriptors, norms, out=descriptors,
                      where=off_unit & (norms > 0))
    model.descriptors = descriptors
    model.keypoints = np.ascontiguousarray(model.keypoints,
                                           dtype=np.float64)


class ObjectDatabase:
    """Geo-tagged object store with section/sub-section queries.

    Descriptor matrices are conditioned (unit-normalized, float64,
    C-contiguous) on :meth:`add`, which covers both programmatic builds
    and :meth:`load`."""

    def __init__(self) -> None:
        self._records: dict[str, ObjectRecord] = {}

    def add(self, record: ObjectRecord) -> None:
        if record.name in self._records:
            raise ValueError(f"duplicate object {record.name!r}")
        _condition_model(record.model)
        self._records[record.name] = record

    def get(self, name: str) -> ObjectRecord:
        try:
            return self._records[name]
        except KeyError:
            raise KeyError(f"unknown object {name!r}") from None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def all_records(self) -> list[ObjectRecord]:
        return list(self._records.values())

    # -- search-space queries ------------------------------------------------

    def in_sections(self, sections: Iterable[str]) -> list[ObjectRecord]:
        wanted = set(sections)
        return [r for r in self._records.values() if r.section in wanted]

    def in_subsections(self, subsections: Iterable[int]
                       ) -> list[ObjectRecord]:
        wanted = set(subsections)
        return [r for r in self._records.values()
                if r.subsection in wanted]

    def sections(self) -> list[str]:
        return sorted({r.section for r in self._records.values()})

    def subsections(self) -> list[int]:
        return sorted({r.subsection for r in self._records.values()})

    def mean_features(self, records: Optional[list[ObjectRecord]] = None
                      ) -> float:
        """Average *computational* descriptor count per object."""
        records = records if records is not None else self.all_records()
        if not records:
            return 0.0
        return float(np.mean([r.model.n_features for r in records]))

    def mean_nominal_features(self,
                              records: Optional[list[ObjectRecord]] = None
                              ) -> float:
        """Average paper-scale feature count (drives matching cost)."""
        records = records if records is not None else self.all_records()
        if not records:
            return 0.0
        return float(np.mean([r.nominal_features for r in records]))
