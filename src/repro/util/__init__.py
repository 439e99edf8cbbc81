"""Small shared utilities: the directed graphs of :mod:`repro.util.graphs`."""
