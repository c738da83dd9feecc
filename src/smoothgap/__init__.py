"""Admissible prime tuples, smooth gaps, and desk-scale empirical scans."""

__version__ = "0.1.0"
