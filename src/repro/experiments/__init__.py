"""Experiment drivers: one module per figure of the paper's evaluation.

Each module's entry point is a pure function of its parameters returning
row dicts / series.  :data:`repro.experiments.report.FIGURES` is their one
parameter table (scales ``tiny``, ``small``, ``full``) and shape-check
registry; the ``figN`` CLI commands, ``python -m repro report`` and
``tests/test_experiments.py`` all run the experiments through it.

| Paper artifact | Module |
|---|---|
| Table 1 (recovery timescales)      | :mod:`repro.experiments.timescales` |
| Fig. 5 (protocol overhead)         | :mod:`repro.experiments.fig5_overhead` |
| Fig. 6 (mode-change dynamics)      | :mod:`repro.experiments.fig6_modechange` |
| Fig. 7 (scheduling trees)          | :mod:`repro.experiments.fig7_scheduling` |
| Fig. 8 (case-study runtime costs)  | :mod:`repro.experiments.fig8_casestudy` |
| Fig. 9 (comparison to PBFT)        | :mod:`repro.experiments.fig9_pbft` |
| Fig. 10 (XC90 cruise-control)      | :mod:`repro.experiments.fig10_xc90` |
| Fig. 11 (testbed attack scenarios) | :mod:`repro.experiments.fig11_testbed` |
| S3.5 / S3.9 ablations              | :mod:`repro.experiments.ablations` |
"""
