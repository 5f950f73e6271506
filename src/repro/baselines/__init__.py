"""The baseline defense DD-POLICE is compared against.

:mod:`~repro.baselines.naive` is the naive rate cutoff the paper argues
is dangerous ("Disconnecting all the peers who send out a large number
of queries is dangerous in that a large number of good peers could be
forwarding queries for bad peers", Section 2.1).
"""
