"""Shared pytest configuration: a deterministic hypothesis profile.

Examples are derived from each test's name rather than a random seed, and
no example database is written, so every run checks the same inputs.
"""

from hypothesis import settings

settings.register_profile("mfcov", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("mfcov")
