"""Runner pod helper commands: one-time directory initialization, the pod
entrypoint contract, and example manifest rendering."""

from .manifests import emit_manifests
from .profile import RunnerProfile
from .runner_dir import MARKER_NAME, init_runner_dir, run_runner

__all__ = [
    "MARKER_NAME",
    "RunnerProfile",
    "emit_manifests",
    "init_runner_dir",
    "run_runner",
]
