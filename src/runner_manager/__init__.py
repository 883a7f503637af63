"""Unprivileged GitHub Actions runner autoscaler for Kubernetes.

Polls GitHub for outstanding workflow jobs and scales a pre-declared runner
Deployment between 0 and max_runners replicas, using only namespaced API
calls. Includes periodic forced provisioning so the runner's registration
credential is renewed before its one-week lifetime expires.
"""

__version__ = "0.1.0"

from .config import Config, Policy, RepoCoordinates, load_config
from .labels import LabelSet
from .reconciler import (
    Decision,
    ManagerState,
    Reason,
    compute_desired,
    keepalive_due,
    update_state,
)

__all__ = [
    "Config",
    "Decision",
    "LabelSet",
    "ManagerState",
    "Policy",
    "Reason",
    "RepoCoordinates",
    "compute_desired",
    "keepalive_due",
    "load_config",
    "update_state",
    "__version__",
]
