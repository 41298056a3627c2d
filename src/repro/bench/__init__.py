"""Empty on purpose. ``benchmarks/suite/`` is the repo's only benchmark;
this package stays only because the suite's frozen layer map
(``benchmarks/suite/layers.py``) lists ``bench`` and its test compares
that map with the directories here. Remove both in one benchmark PR.
"""
