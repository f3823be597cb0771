"""The experiment harness: one module per paper table/figure.

Each experiment module exposes a ``run(...)`` function returning a
result object with a ``rows()`` method producing the same rows/series
the paper reports, plus formatting helpers in
:mod:`repro.experiments.report`.  The benchmarks under ``benchmarks/``
are thin wrappers over these.

Experiment index (see DESIGN.md §4):

* E1  Figure 1  — :mod:`repro.experiments.fig1`
* E2  baseline  — :mod:`repro.experiments.baseline`
* E3  Table I   — :mod:`repro.experiments.table1`
* E4  Figure 5  — :mod:`repro.experiments.fig5`
* E5  §IV-D     — :mod:`repro.experiments.fig6`
* E6  Table II  — :mod:`repro.experiments.table2`
* E7  §IV-A     — :mod:`repro.experiments.delay_ablation`
* E8  ablations — :mod:`repro.experiments.ablations`
"""
