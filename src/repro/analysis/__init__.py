"""Renderer-independent tables and charts for the paper's results.

:mod:`repro.analysis.model` holds the :class:`Table`/:class:`Chart` model;
:mod:`repro.analysis.figures` and :mod:`repro.analysis.tables` reduce each
experiment's payload to table blocks.
"""
