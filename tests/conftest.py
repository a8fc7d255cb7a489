from hypothesis import settings

# Property tests draw the same examples on every run, never time out on a
# loaded machine, and stay cheap enough to keep the suite's wall time flat.
settings.register_profile(
    "zbtopo", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("zbtopo")
