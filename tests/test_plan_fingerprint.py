"""Smoke test for scripts/plan_fingerprint.py, which has no other test.

Running the script's ``fingerprint`` catches a planner or scenario symbol it
uses going away or changing signature.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "plan_fingerprint.py"


def test_fingerprint_is_a_sha256_hex_digest():
    spec = importlib.util.spec_from_file_location("plan_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    digest = module.fingerprint()
    assert len(digest) == 64 and int(digest, 16) >= 0
