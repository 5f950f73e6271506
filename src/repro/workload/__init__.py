"""Query workload: generation and trace capture.

Substitutes the paper's measured inputs (24 h LimeWire query log;
UW KaZaA trace) with synthetic equivalents that preserve the statistics
the defense and the evaluation depend on: per-peer issue rate
(0.3 queries/minute), Zipf keyword popularity, and query distinctness.
"""
