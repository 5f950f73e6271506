"""Peer churn: session lifetimes and the on/off join-leave process.

Section 3.5: "We simulate the joining and leaving behavior of peers via
turning on/off logical peers. ... The lifetime is generated according to
the distribution observed in [19]. The mean of the distribution is chosen
to be 10 minutes. The value of the variance is chosen to be half of the
value of the mean."
"""
