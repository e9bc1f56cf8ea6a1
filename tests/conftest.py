"""Settings shared by every test module under ``tests/``."""

import hypothesis

# Every run draws the same examples, so the suite, like the program, gives the
# same result from the same source. No example database: a saved failure
# replayed first would change what a run draws.
hypothesis.settings.register_profile("deterministic", derandomize=True, database=None)
hypothesis.settings.load_profile("deterministic")
