import sys
from pathlib import Path

# Make the sibling oracles module importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

import pytest  # noqa: E402

from zsindex import VerifyOptions, factorize, harness, verify_conjecture  # noqa: E402


@pytest.fixture
def sweep_results(monkeypatch):
    """Run a sweep and return every (terms, result) it got from ``find_witness``, in call order."""

    def sweep(n, orbits=False):
        calls = []
        find = harness.find_witness

        def recording(s, *args):
            result = find(s, *args)
            calls.append((s.terms, result))
            return result

        with monkeypatch.context() as patch:
            patch.setattr(harness, "find_witness", recording)
            report = verify_conjecture(factorize(n), VerifyOptions(orbits=orbits))
        assert report.complete
        return calls

    return sweep
