"""heatlab: numerical verification of Gaussian-weight convexity bounds for
1-D heat evolutions with bounded complex potentials.  Import each name from its module."""

__version__ = "0.1.0"
