"""Shared test settings.

Property tests replay the same examples on every run (derandomize) and
have no per-example deadline, so a seeded run stays reproducible and a
slow host does not fail them.
"""

from hypothesis import settings

settings.register_profile(
    "weylforge", derandomize=True, deadline=None, database=None
)
settings.load_profile("weylforge")
