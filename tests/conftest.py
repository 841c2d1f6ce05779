"""Suite-wide pytest configuration: Hypothesis profiles.

Tier-1 is a gate, so by default it runs the same Hypothesis examples on
every run (``derandomize=True``).  Randomized exploration belongs where
a red draw is a finding and not a flaky gate: CI's on-demand ``fuzz
deep`` job passes ``--hypothesis-profile=explore``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
