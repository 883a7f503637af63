"""Runner label sets and the job-eligibility rule.

GitHub routes a job to a runner when the job's requested labels are a
subset of the labels the runner advertises; comparison is case-insensitive.
"""

from __future__ import annotations

from collections.abc import Iterable


class LabelSet:
    """Immutable, case-insensitive set of nonempty label strings.

    Duplicates (up to case) collapse. Original spellings are kept for
    display; all comparisons use casefolded forms.
    """

    __slots__ = ("_display", "_folded")

    def __init__(self, labels: Iterable[str] = ()):
        display: list[str] = []
        folded: set[str] = set()
        for raw in labels:
            label = raw.strip()
            if not label:
                raise ValueError("labels must be nonempty strings")
            key = label.casefold()
            if key not in folded:
                folded.add(key)
                display.append(label)
        self._display = tuple(sorted(display, key=str.casefold))
        self._folded = frozenset(folded)

    @classmethod
    def parse(cls, text: str) -> "LabelSet":
        """Build from a comma-separated string, ignoring blank entries."""
        return cls(part for part in text.split(",") if part.strip())

    def issubset(self, other: "LabelSet") -> bool:
        return self._folded <= other._folded

    def __contains__(self, label: str) -> bool:
        return label.casefold() in self._folded

    def __iter__(self):
        return iter(self._display)

    def __len__(self) -> int:
        return len(self._folded)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelSet) and self._folded == other._folded

    def __hash__(self) -> int:
        return hash(self._folded)

    def __repr__(self) -> str:
        return f"LabelSet({list(self._display)!r})"

    def as_list(self) -> list[str]:
        return list(self._display)
