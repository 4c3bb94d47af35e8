"""Exception types shared across the package."""


class QGreedyError(Exception):
    """Base class for errors raised by this package."""


class RestartBudgetExceeded(QGreedyError):
    """Configuration-model sampling failed to produce a simple graph."""

    def __init__(self, n, d, restarts):
        super().__init__(
            f"no simple {d}-regular graph on {n} nodes after {restarts} restarts"
        )
        self.n = n
        self.d = d
        self.restarts = restarts


class StatevectorCapExceeded(QGreedyError):
    """Circuit is wider than the configured statevector qubit cap."""

    def __init__(self, qubits, cap):
        super().__init__(f"{qubits} qubits exceeds statevector cap {cap}")
        self.qubits = qubits
        self.cap = cap


class ContractionBudgetExceeded(QGreedyError):
    """Estimated contraction cost exceeds the configured memory budget."""

    def __init__(self, treewidth_estimate, entries, budget):
        super().__init__(
            f"contraction needs ~{entries} tensor entries (treewidth estimate "
            f"{treewidth_estimate}), budget is {budget}"
        )
        self.treewidth_estimate = treewidth_estimate
        self.entries = entries
        self.budget = budget


class NodeLimitExceeded(QGreedyError):
    """Exact solver refused a graph larger than its node limit."""

    def __init__(self, n, limit):
        super().__init__(f"exact solver limited to {limit} alive nodes, got {n}")
        self.n = n
        self.limit = limit


class AngleFileMismatch(QGreedyError, ValueError):
    """An angle file's header disagrees with a value the run asked for."""

    def __init__(self, path, name, asked, found):
        super().__init__(f"{path}: holds {name} {found}, not {asked}")
        self.name = name  # "depth", "degree" or "lambda"
