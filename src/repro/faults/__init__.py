"""Adversarial fault injection (paper S2.5 threat model).

The adversary can cause up to fmax controllers/links to fail, at most fconc
within one recovery window.  Compromised controllers are *Byzantine*: the
behaviours here cover the attack classes the paper's evaluation exercises --
crashes, silence, selective omission, commission (random data to downstream
tasks, the Fig. 11 attack), heartbeat equivocation, the Fig. 6 worst case
(an LFD over every link of the highest-degree node), and garbage flooding.
"""

from repro.faults.adversary import (
    AdversaryBehavior,
    CorruptOutputRegistry,
    CrashBehavior,
    DelayBehavior,
    EquivocateBehavior,
    GarbageFloodBehavior,
    LFDStormBehavior,
    RandomOutputBehavior,
    SelectiveOmissionBehavior,
    SilenceBehavior,
)

__all__ = [
    "AdversaryBehavior",
    "CrashBehavior",
    "DelayBehavior",
    "SilenceBehavior",
    "SelectiveOmissionBehavior",
    "RandomOutputBehavior",
    "CorruptOutputRegistry",
    "EquivocateBehavior",
    "LFDStormBehavior",
    "GarbageFloodBehavior",
]
