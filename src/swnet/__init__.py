"""swnet: a switched-network scheduling laboratory.

Simulates single- and multi-hop switched networks under max-weight-family
policies, computes the exact static-planning geometry (admissible region,
virtual resources), solves the lifting-map convex program, integrates fluid
models, and runs state-space-collapse experiments.
"""

__version__ = "0.1.0"
