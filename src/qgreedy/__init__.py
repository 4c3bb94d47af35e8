"""Quantum-enhanced greedy search for maximum independent sets.

Classical greedy reduction on bounded-degree graphs, steered by locally
simulated QAOA expectation values evaluated on per-vertex light cones.

The package root re-exports the entry points of a typical solve; every
other public name is imported from its module (``qgreedy.engines``,
``qgreedy.angles`` and so on).
"""

from .angles import load_default_angles
from .engines import ExpectationCache
from .errors import (
    ContractionBudgetExceeded,
    NodeLimitExceeded,
    QGreedyError,
    RestartBudgetExceeded,
)
from .graph import generate_regular
from .solver import (
    SolverConfig,
    solve_classical_greedy,
    solve_quantum_greedy,
)

__version__ = "0.1.0"
