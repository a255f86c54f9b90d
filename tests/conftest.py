"""Shared test setup: every property test runs derandomized, with no deadline."""

from hypothesis import settings

settings.register_profile("causalbn", derandomize=True, deadline=None)
settings.load_profile("causalbn")
