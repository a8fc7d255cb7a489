import pytest
from hypothesis import settings

from zbtopo import invariants

# Property tests draw the same examples on every run, never time out on a
# loaded machine, and stay cheap enough to keep the suite's wall time flat.
settings.register_profile(
    "zbtopo", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("zbtopo")


@pytest.fixture(autouse=True)
def cold_ramp_cache():
    """Each test starts without the Rashba term that an earlier ramp cached,
    so a test that counts assemblies sees the one a first ramp makes."""
    invariants._ramp_mesh.cache_clear()
