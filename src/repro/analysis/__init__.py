"""Analysis tools: exhaustive classification, counting and experiment tables.

These are the routines the paper-figure tests and ``examples/`` print
their tables from: classify every schedule of a small system into the
paper's classes (serial / conflict-serializable / SR / WSR / correct)
and compute fixpoint sizes (:mod:`repro.analysis.hierarchy`), the
Section 6 delay-free probability ``|P| / |H|``
(:mod:`repro.analysis.counting`), compare locking policies
(:mod:`repro.analysis.locking_analysis`), certify multi-version histories
(:mod:`repro.analysis.mvsg`, :mod:`repro.analysis.certificate`), and
format everything as plain-text tables (:mod:`repro.analysis.reporting`).
"""
