"""Model of the Section 2.3 physical testbed.

The paper measured a three-PC pipeline (Figures 4-6): peer A (a modified
LimeWire replaying a captured query log) floods peer B, which looks each
query up in its local index and forwards it to the observer peer C. The
published anchors: B starts discarding queries around 15,000/min incoming
and drops 47% when A sends at its maximum of ~29,000/min.

We reproduce the measurement with a calibrated queueing model of a
LimeWire servent (:mod:`~repro.testbed.limewire`) inside the same A->B->C
pipeline (:mod:`~repro.testbed.pipeline`).
"""
