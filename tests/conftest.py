"""Shared test settings."""

from hypothesis import settings

# Example run time varies with machine load, so no per-example deadline.
settings.register_profile("segdrift", deadline=None)
settings.load_profile("segdrift")
