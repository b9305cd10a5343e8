import sys
from pathlib import Path

from hypothesis import settings

# Allow running the suite from a fresh checkout without installing.
_src = Path(__file__).resolve().parents[1] / "src"
if _src.exists() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

# A loaded 2-core host can stall any single example for seconds, so no
# property test has a per-example deadline.  Without an example database
# (as in CI) a failing property prints its @reproduce_failure blob.
settings.register_profile("mcmimo", deadline=None, print_blob=True)
settings.load_profile("mcmimo")
