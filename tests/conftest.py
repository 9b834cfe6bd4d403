"""Shared test settings.

Every ``hypothesis`` property test runs the same 25 derandomised examples
on each run, without a deadline and without writing an example database,
so a test suite run repeats exactly.  The ``relurec-deep`` profile is the
same with 500 examples; CI runs ``tests/test_lasso_loop.py`` and
``tests/test_harness.py::TestSweepPreflight`` under it with
``--hypothesis-profile=relurec-deep``.  hypothesis still writes its
constants cache under ``.hypothesis/constants/`` in the working directory,
which ``.gitignore`` excludes.
"""

from hypothesis import settings

settings.register_profile(
    "relurec", derandomize=True, deadline=None, database=None, max_examples=25
)
settings.register_profile("relurec-deep", settings.get_profile("relurec"), max_examples=500)
settings.load_profile("relurec")
