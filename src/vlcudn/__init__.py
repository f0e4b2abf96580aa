"""Indoor optical ultra-dense network simulator with Q-learning power control."""

__version__ = "0.1.0"
