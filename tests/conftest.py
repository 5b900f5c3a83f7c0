import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# The same examples on every run, so that a CI failure can be reproduced.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
