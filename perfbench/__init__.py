"""Layered coverage-campaign benchmark (see BENCHMARK.json).

Run one workload with::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 12 --trace 0

The benchmark reaches the program only through its public calls
(``elaborate``, ``instrument``, the ``BACKENDS`` registry,
``compile_state``/``fork``/``poke``/``step``/``cover_counts``,
``InputReplay``, ``Executor.run_campaign``, ``FuzzHarness``/``AflFuzzer``
and the report functions), so a backend reimplemented behind the same
name is still measured without editing this package.
"""
