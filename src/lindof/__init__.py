"""Zero-forcing scheduling and erasure Monte Carlo experiments for linear
interference networks."""

__version__ = "0.1.0"
