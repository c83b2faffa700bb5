"""Shared hypothesis settings: every property test runs the same 150 examples
on every run (derandomized, no example database), with no per-example deadline."""

from hypothesis import settings

settings.register_profile("mrtucker", deadline=None, max_examples=150, database=None,
                          derandomize=True)
settings.load_profile("mrtucker")
