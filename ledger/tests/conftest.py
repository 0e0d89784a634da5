"""Make ``src/repro`` and the ledger's own modules importable for its tests."""

import os
import sys

_LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (_LEDGER, os.path.join(os.path.dirname(_LEDGER), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
