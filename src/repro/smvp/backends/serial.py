"""The serial backend: the historical in-process loop, bit for bit."""

from __future__ import annotations

from repro.smvp.backends.base import ExecutionBackend


class SerialBackend(ExecutionBackend):
    """Per-PE products one after another in the calling thread."""

    name = "serial"
