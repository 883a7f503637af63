"""Deterministic desk-scale testbed.

Fake GitHub Actions API, fake Kubernetes API, fake runner, a virtual clock,
scenario scripting, an independent decision oracle, and the monitors
(``monitors.py``) that judge a finished run by its own policy. Everything
runs on simulated time, on one thread and with no socket: a 30-day trace
takes seconds of wall time and identical scripts produce identical traces.
"""
