"""Evaluation metrics (Sections 3.6-3.7).

* traffic cost, response time, query success rate S(t) -- Figures 9-11;
* damage rate D(t) and damage recovery time -- Figures 12 and 14;
* false negative / false positive / false judgment -- Figure 13 (keeping
  the paper's swapped terminology: *false negative* = good peers wrongly
  disconnected, *false positive* = bad peers not identified).

S(t) and response time are **origin-aware**: agent-originated attack
queries are classified at issue time and excluded from the default
(paper) metrics; the all-traffic variants remain available for
diagnostics. See docs/METRICS.md.
"""
