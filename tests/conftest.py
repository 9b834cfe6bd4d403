"""Shared test settings.

Every ``hypothesis`` property test runs the same 25 derandomised examples
on each run, without a deadline and without writing an example database,
so a test suite run repeats exactly and leaves no ``.hypothesis/`` directory.
"""

from hypothesis import settings

settings.register_profile(
    "relurec", derandomize=True, deadline=None, database=None, max_examples=25
)
settings.load_profile("relurec")
