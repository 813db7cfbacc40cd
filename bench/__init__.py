"""The repository's benchmark: one command, seven workloads, two paths.

``python3 bench/run.py`` is the entry point; ``bench/README.md`` is the
metric and workload catalogue.  Everything the benchmark needs that is
not the program under test — load generator, parity oracle, fleet and
trace synthesiser, span log — lives in this package, so later changes
to ``benchmarks/``, ``repro.bench`` or ``repro.serve.replay`` cannot
move the numbers.
"""
