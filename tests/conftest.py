"""One hypothesis profile for every property test: reproducible examples,
no per-example deadline and no example database, so a run's outcome depends
on the code alone.  Tests set only their own `max_examples`."""

from hypothesis import settings

settings.register_profile("voicing", derandomize=True, deadline=None, database=None)
settings.load_profile("voicing")
