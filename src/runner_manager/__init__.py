"""Unprivileged GitHub Actions runner autoscaler for Kubernetes.

Polls GitHub for outstanding workflow jobs and scales a pre-declared runner
Deployment between 0 and max_runners replicas, using only namespaced API
calls. Includes periodic forced provisioning so the runner's registration
credential is renewed before its one-week lifetime expires.
"""

__version__ = "0.1.0"
