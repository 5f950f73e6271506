"""DD-POLICE: the paper's primary contribution.

Defending P2Ps from Overlay Distributed-Denial-of-Service (Section 3):
peers police their direct neighbors' query behaviour by cooperating with
each suspect's buddy group, then disconnect peers whose General or Single
indicator exceeds the cut threshold CT.

Module map
----------
``config``      tunables (q, warning threshold, CT, exchange period, ...)
``indicators``  Definitions 2.1-2.3: g(j,t), s(j,t,i), classification
``decision``    the verdict kernel every engine judges through (3.3-3.4)
``wire``        Gnutella 0.6 header, every payload codec (Table 1 included)
                and the one-message-per-datagram entry points
``buddy``       buddy groups BG1-j (and the BGr-j generalization)
``exchange``    neighbor-list exchange policies + lying detection
``investigation``  per-suspect report collection with the 5 s window
                (the per-neighbor minute windows are :mod:`repro.evidence`)
``police``      the per-peer protocol engine for the message-level overlay
"""
