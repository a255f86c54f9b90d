"""Shared test setup: every property test runs derandomized, with no deadline."""

import contextlib
import warnings

from hypothesis import settings

# Hypothesis imports this module to report a failing example.  Importing it
# warns that ``mypy_extensions.TypedDict`` is deprecated, which the
# ``filterwarnings = ["error"]`` setting would turn into an error inside
# pytest's hook teardown, ending the session with INTERNALERROR instead of
# the failure.  It is imported here once, with only that warning ignored.
# It needs libcst, which the ``test`` extra does not install; without it
# hypothesis skips the import too, and so does this.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings(
        "ignore",
        message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("causalbn", derandomize=True, deadline=None)
settings.load_profile("causalbn")
