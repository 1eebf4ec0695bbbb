"""Hypothesis profiles: `ci` draws the same examples on every run, so a red
CI run replays locally with HYPOTHESIS_PROFILE=ci; unset, the default
profile draws fresh examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
