"""Chinese Wall (Brewer–Nash): history-based conflict-of-interest control.

The paper invokes Brewer–Nash for VO-wide meta-policies: "When a certain
collaborating party decides to access resources from one domain then this
party is prevented from accessing any resources from a different domain
within this computing environment" (Section 3.1, policy conflict
resolution via meta-policies).

Chinese Wall is inherently *stateful* — permissibility depends on the
subject's access history — which is exactly why the paper classes it as
an application-specific constraint that static policy analysis cannot
catch (experiment E8 demonstrates this: the static analyser finds zero
modality conflicts in a wall policy, yet runtime vetoes fire).  The
engine reaches enforcement through
:class:`~repro.admin.conflicts.ChineseWallMetaPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass


class ChineseWallError(Exception):
    """Raised for unregistered datasets."""


@dataclass(frozen=True)
class Dataset:
    """A company dataset within a conflict-of-interest class."""

    dataset_id: str
    conflict_class: str


@dataclass
class AccessRecord:
    subject_id: str
    dataset_id: str
    at: float


class ChineseWallEngine:
    """Tracks access history and answers wall queries.

    Sanitised datasets (``conflict_class == SANITISED``) are outside all
    walls, as in the original Brewer–Nash paper.
    """

    SANITISED = "sanitised"

    def __init__(self) -> None:
        self._datasets: dict[str, Dataset] = {}
        #: subject -> conflict class -> dataset chosen
        self._commitments: dict[str, dict[str, str]] = {}
        self.history: list[AccessRecord] = []
        self.vetoes = 0

    def register_dataset(self, dataset_id: str, conflict_class: str) -> Dataset:
        dataset = Dataset(dataset_id=dataset_id, conflict_class=conflict_class)
        self._datasets[dataset_id] = dataset
        return dataset

    def dataset(self, dataset_id: str) -> Dataset:
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise ChineseWallError(f"unknown dataset {dataset_id!r}") from None

    def permitted(self, subject_id: str, dataset_id: str) -> bool:
        """May the subject access this dataset, given its history?"""
        dataset = self.dataset(dataset_id)
        if dataset.conflict_class == self.SANITISED:
            return True
        committed = self._commitments.get(subject_id, {}).get(
            dataset.conflict_class
        )
        return committed is None or committed == dataset_id

    def record_access(self, subject_id: str, dataset_id: str, at: float) -> None:
        """Record a granted access, committing the subject inside the wall."""
        dataset = self.dataset(dataset_id)
        if dataset.conflict_class != self.SANITISED:
            self._commitments.setdefault(subject_id, {})[
                dataset.conflict_class
            ] = dataset_id
        self.history.append(
            AccessRecord(subject_id=subject_id, dataset_id=dataset_id, at=at)
        )

    def commitments_of(self, subject_id: str) -> dict[str, str]:
        return dict(self._commitments.get(subject_id, {}))

    # -- PEP integration -----------------------------------------------------------------
