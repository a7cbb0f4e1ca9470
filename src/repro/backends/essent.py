"""ESSENT-like backend: compiled simulation with activity gating (§3.5).

ESSENT ("Efficiently Exploiting Low Activity Factors to Accelerate RTL
Simulation") skips re-evaluating logic whose inputs did not change.  This
backend reproduces the idea at whole-design granularity: each cycle it
compares the register/input state signature against the previous cycle and
skips the combinational sweep entirely when nothing changed (memory writes
invalidate the cache).  Cover statements are still sampled every cycle —
coverage counts cycles, not activity.

The paper's point about this backend is integration effort: adding the
cover primitive took ~5 hours / 60 lines.  Here the whole backend is a
setting of the shared scalar Python emitter (:mod:`repro.backends.pysim`,
selected by the backend name), so its cover support is the emitter's —
the honest analog of that story.
"""

from __future__ import annotations

from .pysim import PySimulation
from .verilator import VerilatorBackend

#: the one scalar Python simulation class; ``activity_stats`` reports the gate
EssentSimulation = PySimulation


class EssentBackend(VerilatorBackend):
    """Factory for activity-gated compiled simulations."""

    name = "essent"
