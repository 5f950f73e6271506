"""Experiment harness: the spec registry, its scenarios, and the DES runner.

Every table/figure in the paper's evaluation is a registered
:class:`~repro.experiments.spec.ExperimentSpec` (see DESIGN.md section 2
for the index) executed by :func:`repro.experiments.library.run_spec`;
``repro run <spec>`` and the ``benchmarks/`` tree both go through it and
publish the same rows the paper reports.
"""
