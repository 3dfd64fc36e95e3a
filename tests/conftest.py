"""Test-suite settings: hypothesis draws the same examples on every run.

With ``derandomize`` each property test seeds its example generator from
the test itself, and with no example database no earlier failure is
replayed, so two runs of the suite test the same inputs.
"""

from hypothesis import settings

settings.register_profile("lagp", derandomize=True, deadline=None, database=None)
settings.load_profile("lagp")
