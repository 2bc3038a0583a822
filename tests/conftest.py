"""Session-wide test settings.

Hypothesis runs derandomized and without an example database, so every
fuzz test draws the same examples on every run and every machine; a test's
own ``@settings`` still sets its number of examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
