"""Desk-scale experiments on tracing properties of group actions.

The package is organized from the group upward: exact word-metric geometry
(``groups``), truncated shift spaces over it (``shifts``), pseudo-orbit
tracing (``shadowing``), hyperbolic toral automorphisms (``torus``),
levelwise quotient-chain actions (``profinite``), and a JSON experiment
harness with a CLI (``harness``, ``cli``).  The top level holds only the
harness entry points; every other name is imported from its module.
"""

from .harness import run_config, validate_config

__version__ = "0.1.0"
