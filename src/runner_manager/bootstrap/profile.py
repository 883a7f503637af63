"""Where the runner pod keeps its install and its job workspaces."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DEFAULT_RUNNER_LABELS
from ..labels import LabelSet


@dataclass
class RunnerProfile:
    persistent_dir: str
    work_dir: str
    labels: LabelSet = field(default_factory=lambda: LabelSet(DEFAULT_RUNNER_LABELS))

    def __post_init__(self):
        if self.persistent_dir == self.work_dir:
            raise ValueError("persistent_dir and work_dir must differ")
